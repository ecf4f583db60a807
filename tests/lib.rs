//! Workspace-level integration test support (see `tests/*.rs`).

pub fn placeholder() {}
