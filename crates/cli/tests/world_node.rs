//! End-to-end multi-process test: `pdeml world-node --launch` must spin up
//! an N-rank world as N OS processes over localhost TCP, verify the
//! rollouts bitwise against the in-process channel transport, and exit 0.
//!
//! Kept deliberately small (2 ranks, 2 requests, 2 steps) — the container
//! CI runner has a single core and every rank trains its own quick fleet.

use std::process::Command;

fn pdeml() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pdeml"))
}

#[test]
fn launch_runs_two_process_world_and_verifies_bitwise() {
    let out = pdeml()
        .args([
            "world-node",
            "--launch",
            "--ranks",
            "2",
            "--requests",
            "2",
            "--steps",
            "2",
        ])
        .output()
        .expect("spawn pdeml");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "world-node --launch failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("bitwise-equal to the channel transport"),
        "missing verification line\nstdout:\n{stdout}"
    );
    assert!(
        stdout.contains("traffic counters identical"),
        "missing traffic-counter verification\nstdout:\n{stdout}"
    );
}

#[test]
fn launch_verifies_under_seeded_faults_too() {
    // A seeded loss plan is evaluated above the transport, so the OS-process
    // TCP world must lose the same strips as the in-process channel oracle
    // and still verify counter-for-counter.
    let out = pdeml()
        .args([
            "world-node",
            "--launch",
            "--ranks",
            "2",
            "--requests",
            "2",
            "--steps",
            "2",
            "--halo-policy",
            "zero-fill",
            "--halo-timeout-ms",
            "150",
            "--fault",
            "loss:0.4:48879",
        ])
        .output()
        .expect("spawn pdeml");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "faulted world-node --launch failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("bitwise-equal to the channel transport"),
        "missing verification line\nstdout:\n{stdout}"
    );
}

#[test]
fn worker_mode_rejects_bad_rank_and_peer_specs() {
    let out = pdeml()
        .args([
            "world-node",
            "--rank",
            "5",
            "--peers",
            "127.0.0.1:1,127.0.0.1:2",
        ])
        .output()
        .expect("spawn pdeml");
    assert!(!out.status.success(), "rank 5 of a 2-peer world must fail");

    let out = pdeml()
        .args(["world-node", "--rank", "0", "--peers", "127.0.0.1:1"])
        .output()
        .expect("spawn pdeml");
    assert!(!out.status.success(), "a 1-peer world is not a world");
}

#[test]
fn launch_refuses_zero_requests_before_spawning_the_world() {
    let out = pdeml()
        .args(["world-node", "--launch", "--ranks", "2", "--requests", "0"])
        .output()
        .expect("spawn pdeml");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("--requests 0 is out of range") && !stderr.contains("panicked at"),
        "stderr:\n{stderr}"
    );
    assert!(
        !stdout.contains("launched as OS processes"),
        "nothing may be spawned:\n{stdout}"
    );
}
