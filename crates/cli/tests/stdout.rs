//! A command whose stdout fails never panics: a reader that closed its end
//! of the pipe ends the process quietly, and any other write error exits 1
//! with one line on stderr.

use std::process::{Command, Output, Stdio};

fn pdeml_info(stdout: impl Into<Stdio>) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pdeml"))
        .arg("info")
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn pdeml")
}

#[cfg(target_os = "linux")]
#[test]
fn a_full_stdout_exits_1_with_one_line_on_stderr() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = pdeml_info(full);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert_eq!(err.lines().count(), 1, "stderr: {err}");
    assert!(
        err.starts_with("error: cannot write to stdout"),
        "stderr: {err}"
    );
}

#[test]
fn a_pipe_closed_before_the_first_write_ends_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = pdeml_info(writer);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
    assert!(err.is_empty(), "stderr: {err}");
}
