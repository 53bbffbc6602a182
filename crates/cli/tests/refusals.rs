//! A rank count the grid cannot be split over is refused at its flag:
//! exit 1 with a one-line hint naming the flag, never a panic inside the
//! partitioner, and so is a block the network would shrink to nothing. A
//! `world-node --launch` checkpoint that cannot be loaded is refused the
//! same way, before any rank process exists.

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

#[test]
fn world_node_launch_refuses_a_bad_restore_before_spawning_any_rank() {
    // An unreadable checkpoint is refused before the first child exists:
    // no "launched" line, and the error is printed once, by the launcher —
    // an orphaned child would print its own copy after the launcher exits.
    let dir = std::env::temp_dir().join("pdeml-refusals-no-such-checkpoint");
    let dir = dir.to_str().expect("a UTF-8 temp path");
    let out = Command::new(env!("CARGO_BIN_EXE_pdeml"))
        .args(["world-node", "--launch", "--ranks", "2", "--restore", dir])
        .output()
        .expect("spawn pdeml");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let code = out.status.code().unwrap_or(-1);
    assert_eq!(code, 1, "exit {code}\nstderr:\n{stderr}");
    let hint = format!("--restore {dir}: cannot read");
    assert_eq!(
        stderr.matches("meta.txt").count(),
        1,
        "one refusal, from the launcher alone\nstderr:\n{stderr}"
    );
    assert!(stderr.contains(&hint), "no hint\nstderr:\n{stderr}");
    assert!(
        !stdout.contains("launched as OS processes"),
        "ranks were spawned before the refusal\nstdout:\n{stdout}"
    );
    assert!(
        !stderr.contains("panicked at"),
        "panicked\nstderr:\n{stderr}"
    );
}

#[test]
fn a_deconv_block_the_network_consumes_exits_1_naming_the_geometry() {
    // 16×16 over 16 ranks leaves 4×4 blocks, which the tiny net's
    // convolutions shrink to nothing before the transpose layer could
    // restore them: refused like inner-crop, not a panic in a rank.
    let out = Command::new(env!("CARGO_BIN_EXE_pdeml"))
        .args(["train", "--quick", "--strategy", "deconv", "--ranks", "16"])
        .output()
        .expect("spawn pdeml");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let code = out.status.code().unwrap_or(-1);
    assert_eq!(code, 1, "exit {code}\nstderr:\n{stderr}");
    assert!(
        stderr.contains("geometry error: rank 0: deconv needs block > 4x4, got 4x4"),
        "no hint\nstderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked at"),
        "panicked\nstderr:\n{stderr}"
    );
}
