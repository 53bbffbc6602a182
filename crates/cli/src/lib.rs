//! The library half of `pdeml`: what other crates and the workspace's
//! cross-crate tests use of the CLI — the `/v1/rollout` text wire format.

pub mod wire;
