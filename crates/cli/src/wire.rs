//! The `/v1/rollout` text wire format, and the one place an `f64` is
//! written as text.
//!
//! ```text
//! model NAME
//! steps K
//! state C H W v0 v1 … v(C*H*W-1)      ← one line per state
//! ```
//!
//! Every value is written as `{:.17e}`: 18 significant digits, which is
//! enough to read any `f64` back bit for bit. [`push_f64_17e`] produces
//! exactly the bytes of `format!("{v:.17e}")` without going through the
//! formatter for the values a rollout holds:
//!
//! * `±0.0` is a literal;
//! * a normal value `m·2^e` with `e < 0` and a decimal exponent in
//!   `[-15, 16]` is scaled exactly in `u128` — `q = (m·5^k) >> (s − k)` with
//!   `s = −e` and `k = 17 − e10 ≤ 32`, so `m·5^k < 2^53·5^32 < 2^128` — the
//!   exact remainder decides the rounding of the 18th digit, and the digits
//!   are emitted two at a time from a table;
//! * everything else — subnormals, larger magnitudes, NaN, ±inf, and a
//!   remainder exactly half-way between two 18-digit neighbours — is written
//!   by `write!(out, "{v:.17e}")`, so those bytes are std's by construction.
//!
//! The exact range reaches 1e-15 because a predicted toy state holds values
//! down to ~1e-12, most of them below 1e-5.

use pde_telemetry::http::{MAX_REQUEST_BODY, MAX_RESPONSE_BODY};
use pde_tensor::Tensor3;
use std::fmt::Write as _;

/// Widest text one value takes in a state line: the separating space, sign,
/// `d.` + 17 digits, `e-308`.
const MAX_VALUE_TEXT: usize = 26;

/// Most values one response may carry: `(steps + 1) × C·H·W` past this
/// would build a body over [`MAX_RESPONSE_BODY`].
const MAX_RESPONSE_VALUES: usize = MAX_RESPONSE_BODY / MAX_VALUE_TEXT;

/// `5^k` for `k` in `0..=32`.
const POW5: [u128; 33] = {
    let mut table = [1u128; 33];
    let mut k = 1;
    while k < table.len() {
        table[k] = table[k - 1] * 5;
        k += 1;
    }
    table
};

/// `"00" "01" … "99"`: two decimal digits per lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

const TEN_17: u64 = 100_000_000_000_000_000;

/// `|v| = q · 10^(e10 − 17)` rounded to 18 significant digits
/// (`10^17 ≤ q < 10^18`), when `v` is in the exact range and not an exact
/// tie; `None` sends it to std's formatter.
fn digits_17e(v: f64) -> Option<(u64, i32)> {
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    if biased == 0 {
        return None; // subnormal (zeros are handled by the caller)
    }
    let e = biased - 1075;
    if e >= 0 {
        return None; // |v| ≥ 2^52, NaN or ±inf
    }
    let s = -e;
    let m = ((bits & ((1 << 52) - 1)) | (1 << 52)) as u128;
    // |v|·10^(17 − e10) = m·5^k / 2^(s − k): its integer part, the dropped
    // remainder and half the divisor (0 when nothing is dropped).
    let scaled = |e10: i32| -> (u128, u128, u128) {
        let k = 17 - e10;
        let n = m * POW5[k as usize];
        let shift = s - k;
        if shift <= 0 {
            (n << -shift, 0, 0)
        } else {
            (n >> shift, n & ((1u128 << shift) - 1), 1u128 << (shift - 1))
        }
    };
    // floor(log10 |v|) is this estimate or one more (e2 = biased − 1023).
    let estimate = ((biased - 1023) * 78_913) >> 18;
    if !(-16..=16).contains(&estimate) {
        return None;
    }
    let mut e10 = estimate.max(-15);
    let (mut q, mut rem, mut half) = scaled(e10);
    if q >= 10 * TEN_17 as u128 {
        e10 += 1; // the estimate was one low: one digit too many
        (q, rem, half) = scaled(e10);
    }
    if q < TEN_17 as u128 {
        return None; // |v| < 1e-15
    }
    if rem > half {
        q += 1;
    } else if half != 0 && rem == half {
        return None; // exactly half-way: std's tie rule decides
    }
    Some(if q == 10 * TEN_17 as u128 {
        (TEN_17, e10 + 1)
    } else {
        (q as u64, e10)
    })
}

/// Appends `v` exactly as `format!("{v:.17e}")` would write it.
pub fn push_f64_17e(out: &mut String, v: f64) {
    if v == 0.0 {
        out.push_str(if v.is_sign_negative() {
            "-0.00000000000000000e0"
        } else {
            "0.00000000000000000e0"
        });
        return;
    }
    let Some((q, e10)) = digits_17e(v) else {
        let _ = write!(out, "{v:.17e}");
        return;
    };
    // sign, d, '.', 17 digits, 'e', '-', two exponent digits
    let mut text = [0u8; 24];
    let mut n = 0;
    if v.is_sign_negative() {
        text[0] = b'-';
        n = 1;
    }
    let mut frac = q % TEN_17;
    text[n] = b'0' + (q / TEN_17) as u8;
    text[n + 1] = b'.';
    let mut at = n + 19;
    for _ in 0..8 {
        let pair = (frac % 100) as usize * 2;
        frac /= 100;
        at -= 2;
        text[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    text[n + 2] = b'0' + frac as u8;
    n += 19;
    text[n] = b'e';
    n += 1;
    if e10 < 0 {
        text[n] = b'-';
        n += 1;
    }
    let exp = e10.unsigned_abs() as usize;
    if exp >= 10 {
        text[n..n + 2].copy_from_slice(&DIGIT_PAIRS[exp * 2..exp * 2 + 2]);
        n += 2;
    } else {
        text[n] = b'0' + exp as u8;
        n += 1;
    }
    out.push_str(std::str::from_utf8(&text[..n]).expect("the text is ASCII"));
}

/// Appends `t` as one `state C H W v0 v1 …` line.
pub fn encode_state_into(out: &mut String, t: &Tensor3) {
    let (c, h, w) = t.shape();
    let _ = write!(out, "state {c} {h} {w}");
    // Exact, so a pooled reply settles at the size a response needs.
    out.reserve_exact(t.len() * MAX_VALUE_TEXT + 1);
    for &v in t.as_slice() {
        out.push(' ');
        push_f64_17e(out, v);
    }
    out.push('\n');
}

/// Parses a `/v1/rollout` body: `model NAME`, `steps K`, then one or more
/// `state C H W floats…` lines forming the history window. A request whose
/// answer — `K + 1` states the size of the largest one sent — would not
/// fit in [`MAX_RESPONSE_BODY`] of text is refused here, before any work is
/// queued.
pub fn parse_rollout_request(text: &str) -> Result<(String, usize, Vec<Tensor3>), String> {
    let mut model = None;
    let mut steps = None;
    let mut history = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        match tokens.next() {
            Some("model") => {
                model = Some(
                    tokens
                        .next()
                        .ok_or_else(|| format!("line {}: 'model' needs a name", lineno + 1))?
                        .to_string(),
                );
            }
            Some("steps") => {
                let k: usize = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| format!("line {}: 'steps' needs a count", lineno + 1))?;
                steps = Some(k);
            }
            Some("state") => {
                let mut dim = || -> Result<usize, String> {
                    tokens
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| format!("line {}: 'state' needs C H W dims", lineno + 1))
                };
                let (c, h, w) = (dim()?, dim()?, dim()?);
                let want = c
                    .checked_mul(h)
                    .and_then(|x| x.checked_mul(w))
                    .filter(|&x| x > 0 && x <= MAX_REQUEST_BODY)
                    .ok_or_else(|| format!("line {}: bad state dims {c}x{h}x{w}", lineno + 1))?;
                let data: Vec<f64> = tokens
                    .map(|t| {
                        t.parse::<f64>()
                            .map_err(|_| format!("line {}: bad float '{t}'", lineno + 1))
                    })
                    .collect::<Result<_, _>>()?;
                if data.len() != want {
                    return Err(format!(
                        "line {}: state {c}x{h}x{w} needs {want} values, got {}",
                        lineno + 1,
                        data.len()
                    ));
                }
                history.push(Tensor3::from_vec(c, h, w, data));
            }
            Some(other) => return Err(format!("line {}: unknown field '{other}'", lineno + 1)),
            None => {}
        }
    }
    let model = model.ok_or("missing 'model' line")?;
    let steps = steps.ok_or("missing 'steps' line")?;
    let Some(state_len) = history.iter().map(Tensor3::len).max() else {
        return Err("missing 'state' line(s)".into());
    };
    let answer = steps
        .checked_add(1)
        .and_then(|states| states.checked_mul(state_len));
    if answer.is_none_or(|values| values > MAX_RESPONSE_VALUES) {
        return Err(format!(
            "'steps {steps}' asks for more than one response carries: \
             (steps + 1) x {state_len} values must stay within {MAX_RESPONSE_VALUES}"
        ));
    }
    Ok((model, steps, history))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// `push_f64_17e` against `format!("{v:.17e}")` for one value.
    fn same_as_std(v: f64) {
        let mut ours = String::new();
        push_f64_17e(&mut ours, v);
        assert_eq!(ours, format!("{v:.17e}"), "bits {:#018x}", v.to_bits());
    }

    /// A normal `f64` with a uniform random mantissa and a biased exponent
    /// drawn from `exponents`.
    fn with_exponent(rng: &mut TestRng, exponents: std::ops::Range<u64>) -> f64 {
        let biased = exponents.start + rng.below(exponents.end - exponents.start);
        f64::from_bits((rng.next_u64() & (1 << 63 | ((1 << 52) - 1))) | biased << 52)
    }

    #[test]
    fn random_bit_patterns_match_std() {
        let mut rng = TestRng::deterministic("random_bit_patterns_match_std");
        for _ in 0..1_000_000 {
            same_as_std(f64::from_bits(rng.next_u64()));
        }
        // Uniform bits rarely land in the exact range; a million more that do,
        // 1e-16 … 1e16 (biased exponents 970 … 1076).
        for _ in 0..1_000_000 {
            same_as_std(with_exponent(&mut rng, 970..1077));
        }
    }

    #[test]
    fn powers_of_ten_and_their_neighbours_match_std() {
        for p in -20..=20 {
            let v: f64 = format!("1e{p}").parse().unwrap();
            for bits in [v.to_bits() - 1, v.to_bits(), v.to_bits() + 1] {
                same_as_std(f64::from_bits(bits));
                same_as_std(-f64::from_bits(bits));
            }
        }
    }

    #[test]
    fn both_edges_of_the_exact_range() {
        // Low edge: 1e-15 (as an f64, a hair above) is in, the value below
        // it is out.
        let low = 1e-15f64;
        for v in [low, low.next_down(), low.next_up(), 9.99e-16, 1.1e-15] {
            same_as_std(v);
        }
        assert!(digits_17e(low).is_some(), "1e-15 is inside the range");
        assert!(digits_17e(1.1e-15).is_some(), "1.1e-15 is inside the range");
        assert!(digits_17e(low.next_down()).is_none(), "below 1e-15 is out");
        assert!(digits_17e(1e-17).is_none(), "1e-17 is outside the range");
        // High edge: m·2^e with e < 0 ends just under 2^52.
        let top = 2f64.powi(52);
        for v in [top.next_down(), top, top.next_up(), 2f64.powi(53)] {
            same_as_std(v);
        }
        assert!(digits_17e(top.next_down()).is_some());
        assert!(digits_17e(top).is_none(), "e = 0 takes the std route");
    }

    #[test]
    fn special_values_match_std() {
        for v in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::EPSILON,
            0.1,
            1.0,
            1e16f64.next_down(),
        ] {
            same_as_std(v);
        }
    }

    #[test]
    fn exact_ties_take_the_std_route() {
        // 1 + 2^-18 = 1.000003814697265625 exactly: 19 significant digits
        // ending in 5, so rounding to 18 is a true tie.
        let tie = 1.0 + 2f64.powi(-18);
        assert_eq!(format!("{tie:.20e}"), "1.00000381469726562500e0");
        assert!(digits_17e(tie).is_none(), "a tie must go to std");
        same_as_std(tie);
        same_as_std(-tie);
        // The values beside it are not ties and stay on the exact path.
        assert!(digits_17e(tie.next_up()).is_some());
        same_as_std(tie.next_up());
    }

    #[test]
    fn toy_magnitudes_take_the_exact_path() {
        for v in [1.7e-12, 3.3e-6, 0.5, 1.0, 3.0, 1.225, 101_325.0] {
            assert!(digits_17e(v).is_some(), "{v} should take the exact path");
            same_as_std(v);
        }
    }

    /// A state of `values`, with its C·H·W drawn around it.
    fn state_of(values: Vec<f64>) -> Tensor3 {
        let n = values.len();
        Tensor3::from_vec(1, 1, n, values)
    }

    fn request_for(steps: usize, t: &Tensor3) -> String {
        let mut body = format!("model m\nsteps {steps}\n");
        encode_state_into(&mut body, t);
        body
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn encode_then_parse_is_bitwise(
            bits in prop::collection::vec(0u64..=u64::MAX, 1..64),
            steps in 0usize..1000,
        ) {
            let t = state_of(bits.iter().map(|&b| f64::from_bits(b)).collect());
            let (model, got_steps, history) =
                parse_rollout_request(&request_for(steps, &t)).map_err(TestCaseError::Fail)?;
            prop_assert_eq!(model, "m");
            prop_assert_eq!(got_steps, steps);
            prop_assert_eq!(history.len(), 1);
            for (sent, back) in t.as_slice().iter().zip(history[0].as_slice()) {
                if sent.is_nan() {
                    prop_assert!(back.is_nan(), "NaN came back as {}", back);
                } else {
                    prop_assert_eq!(sent.to_bits(), back.to_bits());
                }
            }
        }

        #[test]
        fn truncated_bodies_are_errors_not_panics(
            bits in prop::collection::vec(0u64..=u64::MAX, 2..32),
            cut in 0.0f64..1.0,
        ) {
            let t = state_of(bits.iter().map(|&b| f64::from_bits(b)).collect());
            let body = request_for(2, &t);
            // Cut anywhere from the end of the dims to the start of the last
            // value: the line then holds fewer values than it declares (a
            // torn one may still parse as a shorter float).
            let values_start = format!("model m\nsteps 2\nstate 1 1 {} ", bits.len()).len();
            let last_value = body.trim_end().rfind(' ').unwrap();
            let at = values_start + ((last_value - values_start) as f64 * cut) as usize;
            let truncated = &body[..at];
            prop_assert!(parse_rollout_request(truncated).is_err(), "{truncated:?}");
        }

        #[test]
        fn random_bodies_never_panic(
            bytes in prop::collection::vec(0u8..=255, 0..200),
            words in prop::collection::vec(0usize..8, 0..40),
        ) {
            let _ = parse_rollout_request(&String::from_utf8_lossy(&bytes));
            const WORDS: [&str; 8] =
                ["model", "steps", "state", "\n", "1", "-0", "NaN", "18446744073709551615"];
            let text: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
            let _ = parse_rollout_request(&text.join(" "));
        }
    }

    #[test]
    fn a_step_count_past_the_response_bound_is_refused() {
        let t = state_of(vec![0.5; 1024]);
        assert!(parse_rollout_request(&request_for(usize::MAX, &t)).is_err());
        assert!(parse_rollout_request(&request_for(100_000_000, &t)).is_err());
        let most = MAX_RESPONSE_VALUES / 1024 - 1;
        assert!(parse_rollout_request(&request_for(most, &t)).is_ok());
        assert!(parse_rollout_request(&request_for(most + 1, &t)).is_err());
    }
}
