//! The crate's one foreign call: `ppoll(2)`, declared here (64-bit Linux
//! layout) instead of pulling in `libc` — the workspace builds offline.
//! A move to `epoll` would hide behind the same safe wrapper.

use std::ffi::{c_int, c_ulong, c_void};
use std::{io, os::fd::RawFd, ptr, time::Duration};

/// `events`/`revents` bits; `POLLERR` and `POLLHUP` are reported unasked.
pub(crate) const POLLIN: i16 = 0x001;
pub(crate) const POLLOUT: i16 = 0x004;

#[repr(C)] // struct pollfd
pub(crate) struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

extern "C" {
    // `tmo` is a `struct timespec`: seconds and nanoseconds, 64 bits each.
    fn ppoll(fds: *mut PollFd, nfds: c_ulong, tmo: *const [i64; 2], mask: *const c_void) -> c_int;
}

/// Blocks (`EINTR` retried) until some of `fds` are ready or `timeout`
/// passes (`None`: forever); fills in `revents` and returns how many.
pub(crate) fn wait_ready(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let tmo = timeout.map(|d| [d.as_secs() as i64, i64::from(d.subsec_nanos())]);
    let tmo = tmo.as_ref().map_or(ptr::null(), ptr::from_ref);
    loop {
        // SAFETY: `fds` is one live, exclusively borrowed slice laid out
        // as `struct pollfd[]`, the only memory written; `tmo` is null or
        // outlives the call; a null mask leaves the signal mask alone.
        let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as c_ulong, tmo, ptr::null()) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}
