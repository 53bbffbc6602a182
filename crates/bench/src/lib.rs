//! Host package of the workspace-root `tests/` (cross-crate integration
//! suites) and `examples/` (the harnesses that regenerate every table and
//! figure and write the committed `results/*`); see this crate's manifest
//! for the list. It exports nothing. Performance numbers come from
//! `bash benchmark/run.sh`, not from here.
