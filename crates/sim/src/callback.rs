//! A heap-avoiding `FnOnce()` container for scheduled simulator actions.
//!
//! Every coherence transaction, message delivery, and replacement hint
//! schedules a callback through [`crate::Sim::call_at`]. Boxing each
//! closure put tens of millions
//! of 32–40 byte heap allocations on the paper-scale runs' hot path;
//! allocator time alone was close to a quarter of wall clock.
//! [`SmallCall`] stores closures of up to [`INLINE_BYTES`] captured bytes
//! inline in the event entry itself and falls back to `Box` only for
//! larger captures, so the common case allocates nothing.

use std::fmt;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};

/// Inline capture budget, in bytes. The hot callbacks capture an
/// `Rc<Machine>` plus either a block address, a completion cell and a
/// couple of scalars (SM) or a whole 48-byte packet (MP delivery, the
/// largest at 56 bytes); anything bigger is boxed.
pub const INLINE_BYTES: usize = 56;

/// Inline storage measured in `u64` words, which also fixes its
/// alignment: closures aligned stricter than `u64` take the boxed path.
const WORDS: usize = INLINE_BYTES / 8;

/// A type-erased `FnOnce() + 'static` with inline storage for small
/// captures (the small-closure analogue of small-string optimization).
///
/// Closures whose captures fit [`INLINE_BYTES`] and are at most
/// `u64`-aligned live directly in the struct; larger or stricter-aligned
/// ones are boxed transparently. Either way the closure runs exactly once
/// via [`SmallCall::invoke`], and is dropped without running if the
/// `SmallCall` is dropped unconsumed (e.g. a queue torn down mid-run).
pub struct SmallCall {
    data: [MaybeUninit<u64>; WORDS],
    /// Consumes the closure in `data`, running it.
    call_fn: unsafe fn(*mut u64),
    /// Drops the closure in `data` without running it.
    drop_fn: unsafe fn(*mut u64),
}

impl SmallCall {
    /// Wraps `f`, storing its captures inline when they fit.
    pub fn new<F: FnOnce() + 'static>(f: F) -> Self {
        let mut data: [MaybeUninit<u64>; WORDS] = [MaybeUninit::uninit(); WORDS];
        if size_of::<F>() <= INLINE_BYTES && align_of::<F>() <= align_of::<u64>() {
            wwt_obs::count(wwt_obs::Ctr::SimCallInline, 1);
            // SAFETY: F fits the storage in both size and alignment
            // (checked above), and the storage is uninitialized.
            unsafe { (data.as_mut_ptr() as *mut F).write(f) };
            SmallCall {
                data,
                call_fn: call_inline::<F>,
                drop_fn: drop_inline::<F>,
            }
        } else {
            wwt_obs::count(wwt_obs::Ctr::SimCallBoxed, 1);
            // Large capture: store one raw Box pointer inline instead.
            // SAFETY: a thin pointer always fits the first word.
            unsafe { (data.as_mut_ptr() as *mut *mut F).write(Box::into_raw(Box::new(f))) };
            SmallCall {
                data,
                call_fn: call_boxed::<F>,
                drop_fn: drop_boxed::<F>,
            }
        }
    }

    /// Runs the closure, consuming the container.
    pub fn invoke(self) {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: `this` is never dropped, so the closure is consumed
        // exactly once — here, by its matching call thunk.
        unsafe { (this.call_fn)(this.data.as_mut_ptr() as *mut u64) }
    }
}

impl Drop for SmallCall {
    fn drop(&mut self) {
        // SAFETY: `invoke` wraps `self` in ManuallyDrop, so reaching this
        // Drop means the closure is still live in `data`.
        unsafe { (self.drop_fn)(self.data.as_mut_ptr() as *mut u64) }
    }
}

impl fmt::Debug for SmallCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SmallCall(..)")
    }
}

/// SAFETY contract for all four thunks: `p` points at storage holding a
/// live `F` (inline) or a live `*mut F` from `Box::into_raw` (boxed),
/// and the value is never touched again after the thunk consumes it.
unsafe fn call_inline<F: FnOnce()>(p: *mut u64) {
    let f = unsafe { (p as *mut F).read() };
    f();
}

unsafe fn drop_inline<F: FnOnce()>(p: *mut u64) {
    unsafe { std::ptr::drop_in_place(p as *mut F) }
}

unsafe fn call_boxed<F: FnOnce()>(p: *mut u64) {
    let b = unsafe { Box::from_raw((p as *mut *mut F).read()) };
    (*b)();
}

unsafe fn drop_boxed<F: FnOnce()>(p: *mut u64) {
    drop(unsafe { Box::from_raw((p as *mut *mut F).read()) });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn small_closure_runs_inline() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = Rc::clone(&log);
        let call = SmallCall::new(move || l.borrow_mut().push(1u64));
        call.invoke();
        assert_eq!(*log.borrow(), vec![1]);
    }

    #[test]
    fn large_closure_falls_back_to_box() {
        let log = Rc::new(RefCell::new(0u64));
        let l = Rc::clone(&log);
        let payload = [7u64; 16]; // 128 bytes of captures: > INLINE_BYTES
        let call = SmallCall::new(move || *l.borrow_mut() = payload.iter().sum());
        call.invoke();
        assert_eq!(*log.borrow(), 7 * 16);
    }

    #[test]
    fn unconsumed_closures_drop_their_captures() {
        let rc = Rc::new(());
        let small = SmallCall::new({
            let rc = Rc::clone(&rc);
            move || drop(rc)
        });
        let big_payload = [0u64; 16];
        let large = SmallCall::new({
            let rc = Rc::clone(&rc);
            move || {
                drop(rc);
                let _ = big_payload;
            }
        });
        assert_eq!(Rc::strong_count(&rc), 3);
        drop(small);
        drop(large);
        assert_eq!(Rc::strong_count(&rc), 1);
    }

    #[test]
    fn zero_sized_closures_work() {
        SmallCall::new(|| {}).invoke();
    }
}
