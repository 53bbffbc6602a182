//! A bad kernel environment variable is refused before any command starts:
//! exit 1 with the variable's one-line hint, never a panic after the
//! training header.

use std::process::Command;

fn train_quick_with(var: &str, value: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pdeml"))
        .args(["train", "--quick"])
        .env_remove("PDEML_KERNEL")
        .env_remove("PDEML_THREADS_PER_RANK")
        .env(var, value)
        .output()
        .expect("spawn pdeml");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code().unwrap_or(-1), stderr)
}

#[test]
fn bad_kernel_env_values_exit_1_with_their_hint_before_any_work() {
    for (var, value, hint) in [
        ("PDEML_KERNEL", "avx2", "is not a kernel path"),
        ("PDEML_THREADS_PER_RANK", "abc", "is not a thread count"),
        ("PDEML_THREADS_PER_RANK", "0", "would disable the kernels"),
    ] {
        let (code, stderr) = train_quick_with(var, value);
        assert_eq!(code, 1, "{var}={value}: exit {code}\nstderr:\n{stderr}");
        assert!(
            stderr.contains(hint),
            "{var}={value}: no '{hint}' hint\nstderr:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked at"),
            "{var}={value} panicked\nstderr:\n{stderr}"
        );
    }
}
