//! The one writer of command output.
//!
//! Every line a command prints goes through [`write`], by the [`out!`] and
//! [`outln!`] macros; `println!` would panic when stdout fails. A reader
//! that went away (`pdeml info | head -1`: a broken pipe) ends the process
//! quietly with status 0, as the reader asked for no more. Any other write
//! error (`pdeml info >/dev/full`) ends it with status 1 and one line on
//! stderr.

use std::io::{ErrorKind, Write};

/// Writes `args` to stdout and flushes, or ends the process as above.
pub fn write(args: std::fmt::Arguments<'_>) {
    let written = {
        let mut stdout = std::io::stdout().lock();
        stdout.write_fmt(args).and_then(|()| stdout.flush())
    };
    match written {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// `print!` through [`write`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::out::write(format_args!($($arg)*))
    };
}

/// `println!` through [`write`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::out::write(format_args!("{}\n", format_args!($($arg)*)))
    };
}
