//! SIGINT/SIGTERM → graceful shutdown, without a signals crate.
//!
//! The handler does the only async-signal-safe thing possible: it
//! flips the server's shutdown `AtomicBool` through a process-global
//! `OnceLock`. [`crate::Server::run`]'s thread checks that flag every
//! 5 ms, so `kill -INT <pid>` behaves exactly like `POST
//! /v1/shutdown`: in-flight searches are cancelled, workers finish
//! their responses, the ones blocked in `accept` are woken, and the
//! process exits through the normal `DrainReport` path.

use std::sync::Arc;
use std::sync::OnceLock;

use crate::{ServerState, ShutdownHandle};

static STATE: OnceLock<Arc<ServerState>> = OnceLock::new();

/// Installs SIGINT and SIGTERM handlers that request shutdown on the
/// given server. Only the first installed server wins the process-wide
/// slot (one daemon per process); on non-Unix platforms this is a
/// no-op.
pub fn install(handle: &ShutdownHandle) {
    let _ = STATE.set(Arc::clone(handle.state()));
    imp::install();
}

#[cfg(unix)]
mod imp {
    // `void (*)(int)` — typed as a proper fn pointer so no numeric
    // casts are involved (libc-free FFI).
    type SigHandler = extern "C" fn(i32);

    extern "C" {
        fn signal(signum: i32, handler: SigHandler) -> *const core::ffi::c_void;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: a OnceLock read plus an atomic store.
        if let Some(state) = super::STATE.get() {
            state.request_shutdown();
        }
    }

    pub(super) fn install() {
        // SAFETY: `signal` is the POSIX libc symbol; `on_signal` is an
        // `extern "C" fn(i32)` matching the required handler signature
        // and only performs async-signal-safe atomic operations.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub(super) fn install() {}
}
