//! A rank count the grid cannot be split over is refused at its flag:
//! exit 1 with a one-line hint naming the flag, never a panic inside the
//! partitioner.

use std::process::Command;

#[test]
fn rank_counts_the_grid_cannot_feed_exit_1_with_a_hint() {
    for (args, hint) in [
        (
            &["train", "--quick", "--ranks", "17"][..],
            "--ranks 17 is out of range: a 16x16 grid cannot feed a 1x17 process grid",
        ),
        (
            &[
                "serve",
                "--quick",
                "--ranks-per-world",
                "17",
                "--addr",
                "127.0.0.1:0",
            ][..],
            "--ranks-per-world 17 is out of range: a 16x16 grid cannot feed a 1x17 process grid",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pdeml"))
            .args(args)
            .output()
            .expect("spawn pdeml");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let code = out.status.code().unwrap_or(-1);
        assert_eq!(code, 1, "{args:?}: exit {code}\nstderr:\n{stderr}");
        assert!(
            stderr.contains(hint),
            "{args:?}: no hint\nstderr:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked at"),
            "{args:?} panicked\nstderr:\n{stderr}"
        );
    }
}
