//! Clocks, wall-clock spans and self-time arithmetic.
//!
//! Two clocks. End-to-end times are read on the **CPU-time** clocks
//! ([`thread_cpu_ns`], [`process_cpu_ns`]): on a virtual machine the
//! wall clock also runs while the hypervisor has taken the vCPU away
//! (steal), which moves a wall-clock median by tens of percent from
//! one minute to the next, while CPU time only counts what the program
//! executed. Per-layer spans are read on the cheap monotonic wall
//! clock ([`now_ns`]) — they are ratios within one op, so steal
//! largely cancels, and a CPU-clock read per `plan` call would cost
//! more than the call.
//!
//! Every timed call becomes a [`Span`] on the wall clock. A layer's
//! time inside an op is the part of the op span its spans *cover*:
//! overlapping spans (two worker threads planning sends at once)
//! count once, and anything outside the op span is clipped away. The
//! op's own ("self") time is what its children leave uncovered.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (monotonic wall
/// clock).
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` (Linux).
const PROCESS_CPU: i32 = 2;
const THREAD_CPU: i32 = 3;

fn cpu_clock(clock: i32) -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of
    // the call, and both clock ids exist on every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// CPU nanoseconds the calling thread has run (excludes steal and
/// time descheduled). A system call: about 0.4 µs.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock(THREAD_CPU)
}

/// CPU nanoseconds all threads of this process have run.
pub fn process_cpu_ns() -> u64 {
    cpu_clock(PROCESS_CPU)
}

/// A closed-open wall-clock interval `[start, end)` in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Start, from [`now_ns`].
    pub start: u64,
    /// End, from [`now_ns`].
    pub end: u64,
}

impl Span {
    /// A span from `start` to `end`.
    pub fn new(start: u64, end: u64) -> Span {
        Span { start, end }
    }

    /// Length in nanoseconds (0 if reversed).
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// True iff the span has no length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Nanoseconds of `within` covered by the union of `spans`: each
/// span is clipped to `within`, and overlapping spans count once.
/// Sorts `spans` in place.
pub fn covered(spans: &mut [Span], within: Span) -> u64 {
    spans.sort_unstable_by_key(|s| s.start);
    let mut total = 0;
    let mut run: Option<Span> = None;
    for s in spans.iter() {
        let clipped = Span::new(s.start.max(within.start), s.end.min(within.end));
        if clipped.is_empty() {
            continue;
        }
        run = match run {
            Some(r) if clipped.start <= r.end => Some(Span::new(r.start, r.end.max(clipped.end))),
            Some(r) => {
                total += r.len();
                Some(clipped)
            }
            None => Some(clipped),
        };
    }
    total + run.map_or(0, |r| r.len())
}

/// Self time of `parent`: its length minus what `children` cover.
pub fn self_time(parent: Span, children: &mut [Span]) -> u64 {
    parent.len() - covered(children, parent)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(a: u64, b: u64) -> Span {
        Span::new(a, b)
    }

    #[test]
    fn disjoint_children_add_up() {
        let mut kids = vec![s(10, 20), s(30, 35)];
        assert_eq!(covered(&mut kids, s(0, 100)), 15);
        assert_eq!(self_time(s(0, 100), &mut kids), 85);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        // two workers planning at once: [10,30) and [20,40) cover 30
        let mut kids = vec![s(20, 40), s(10, 30)];
        assert_eq!(covered(&mut kids, s(0, 100)), 30);
        assert_eq!(self_time(s(0, 100), &mut kids), 70);
    }

    #[test]
    fn nested_and_touching_children_merge() {
        let mut kids = vec![s(10, 50), s(20, 30), s(50, 60), s(55, 58)];
        assert_eq!(covered(&mut kids, s(0, 100)), 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let mut kids = vec![s(0, 15), s(90, 120), s(200, 300)];
        assert_eq!(covered(&mut kids, s(10, 100)), 15);
        assert_eq!(self_time(s(10, 100), &mut kids), 75);
    }

    #[test]
    fn no_children_means_all_self_time() {
        assert_eq!(self_time(s(5, 9), &mut []), 4);
        assert_eq!(covered(&mut [s(3, 3)], s(0, 10)), 0);
    }

    #[test]
    fn the_clocks_are_monotonic_and_cpu_time_advances_with_work() {
        let (a, ta, pa) = (now_ns(), thread_cpu_ns(), process_cpu_ns());
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        let (b, tb, pb) = (now_ns(), thread_cpu_ns(), process_cpu_ns());
        assert!(b > a && tb > ta && pb > pa, "{x}");
    }
}
