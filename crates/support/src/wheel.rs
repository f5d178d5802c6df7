//! Hierarchical timer wheel over **virtual time**.
//!
//! The reactor ([`crate::reactor`]) needs to order jitter, retry/backoff
//! and retransmission deadlines for 10⁵⁺ concurrent sessions without a
//! per-timer heap rebalance. This is the classic hashed hierarchical
//! wheel (Varghese & Lauck): [`LEVELS`] levels of [`SLOTS`] slots, each
//! level covering a window 64× coarser than the one below, with per-level
//! occupancy bitmaps so finding the next deadline is a handful of
//! `trailing_zeros` scans.
//!
//! Time is a `u64` tick counter that only moves when [`TimerWheel::advance_to`]
//! is called — *virtual* time, never the wall clock, so a seeded schedule
//! replays exactly. One tick is 1 µs ([`TICKS_PER_SEC`]); the session
//! model's `f64` second timestamps convert via [`ticks_from_secs`].
//!
//! Determinism contract: timers expire in `(deadline, insertion-seq)`
//! order — two timers on the same tick fire in the order they were
//! scheduled, independent of which wheel level they happened to occupy.

/// Virtual ticks per simulated second (1 µs resolution).
pub const TICKS_PER_SEC: u64 = 1_000_000;

/// Slots per wheel level (64 ⇒ slot index is a 6-bit digit of the tick).
pub const SLOTS: usize = 64;

/// Bits of the tick consumed per level.
const BITS: u32 = 6;

/// Number of levels. 8 levels × 6 bits = 48 bits of horizon — about
/// 8.9 simulated years at 1 µs per tick, far beyond any session.
pub const LEVELS: usize = 8;

/// Largest schedulable deadline (deadlines beyond are clamped).
pub const MAX_DEADLINE: u64 = (1u64 << (BITS * LEVELS as u32)) - 1;

/// Converts simulated seconds to virtual ticks (rounds up so a strictly
/// positive delay never collapses to "now").
#[must_use]
pub fn ticks_from_secs(secs: f64) -> u64 {
    if secs <= 0.0 {
        return 0;
    }
    let t = (secs * TICKS_PER_SEC as f64).ceil();
    if t >= MAX_DEADLINE as f64 { MAX_DEADLINE } else { t as u64 }
}

/// Converts virtual ticks back to simulated seconds.
#[must_use]
pub fn secs_from_ticks(ticks: u64) -> f64 {
    ticks as f64 / TICKS_PER_SEC as f64
}

#[derive(Debug, Clone)]
struct Entry<T> {
    deadline: u64,
    seq: u64,
    value: T,
}

/// A hierarchical timer wheel holding values of type `T`.
///
/// Invariant (maintained by `schedule` + `advance_to`): every stored
/// entry has `deadline > now`, and an entry sits at the highest level
/// where its deadline's 6-bit digit differs from `now`'s. All entries in
/// one slot therefore share the same absolute window, and within a
/// level, lower slot index ⇒ earlier deadline.
#[derive(Debug)]
pub struct TimerWheel<T> {
    now: u64,
    seq: u64,
    len: usize,
    /// `levels[l * SLOTS + s]` = entries in slot `s` of level `l`.
    slots: Vec<Vec<Entry<T>>>,
    /// One bit per slot, per level.
    occupancy: [u64; LEVELS],
    /// Entries scheduled at or before `now`; fire on the next advance.
    overdue: Vec<Entry<T>>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel at tick 0.
    #[must_use]
    pub fn new() -> Self {
        let mut slots = Vec::with_capacity(LEVELS * SLOTS);
        slots.resize_with(LEVELS * SLOTS, Vec::new);
        Self { now: 0, seq: 0, len: 0, slots, occupancy: [0; LEVELS], overdue: Vec::new() }
    }

    /// Current virtual tick.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of pending timers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no timers are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `value` to expire at absolute tick `deadline`.
    /// Deadlines at or before `now` fire on the next [`Self::advance_to`];
    /// deadlines past [`MAX_DEADLINE`] are clamped.
    pub fn schedule(&mut self, deadline: u64, value: T) {
        let deadline = deadline.min(MAX_DEADLINE);
        let entry = Entry { deadline, seq: self.seq, value };
        self.seq += 1;
        self.len += 1;
        if deadline <= self.now {
            self.overdue.push(entry);
        } else {
            self.insert(entry);
        }
    }

    /// Level/slot placement relative to the current `now` (XOR rule:
    /// highest 6-bit digit where deadline and now differ).
    fn place(&self, deadline: u64) -> (usize, usize) {
        let diff = deadline ^ self.now;
        debug_assert!(diff != 0, "place() requires deadline > now");
        let level = ((63 - diff.leading_zeros()) / BITS) as usize;
        let level = level.min(LEVELS - 1);
        let slot = ((deadline >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        (level, slot)
    }

    fn insert(&mut self, entry: Entry<T>) {
        let (level, slot) = self.place(entry.deadline);
        self.slots[level * SLOTS + slot].push(entry);
        self.occupancy[level] |= 1u64 << slot;
    }

    /// The earliest pending deadline (clamped to `now` for overdue
    /// entries), or `None` when the wheel is empty.
    #[must_use]
    pub fn next_deadline(&self) -> Option<u64> {
        if !self.overdue.is_empty() {
            return Some(self.now);
        }
        let mut best: Option<u64> = None;
        for level in 0..LEVELS {
            let bitmap = self.occupancy[level];
            if bitmap == 0 {
                continue;
            }
            // Within a level every occupied slot shares now's parent
            // window, so the lowest occupied index holds the level's
            // earliest entries.
            let slot = bitmap.trailing_zeros() as usize;
            let min = self.slots[level * SLOTS + slot]
                .iter()
                .map(|e| e.deadline)
                .min()
                .expect("occupancy bit set on empty slot");
            best = Some(best.map_or(min, |b: u64| b.min(min)));
        }
        best
    }

    /// Advances virtual time to `target`, appending every expired
    /// `(deadline, value)` to `out` in `(deadline, insertion-seq)` order.
    /// Entries whose coarse window was entered but whose deadline is
    /// still ahead cascade down to finer levels.
    pub fn advance_to(&mut self, target: u64, out: &mut Vec<(u64, T)>) {
        if target < self.now {
            return;
        }
        let mut pending: Vec<Entry<T>> = std::mem::take(&mut self.overdue);
        for level in 0..LEVELS {
            let mut bitmap = self.occupancy[level];
            while bitmap != 0 {
                let slot = bitmap.trailing_zeros() as usize;
                bitmap &= bitmap - 1;
                let bucket = &mut self.slots[level * SLOTS + slot];
                // All entries in a slot share one window; its start is
                // the deadline with the low 6·level bits cleared.
                let w_start =
                    (bucket[0].deadline >> (BITS * level as u32)) << (BITS * level as u32);
                if w_start <= target {
                    pending.append(bucket);
                    self.occupancy[level] &= !(1u64 << slot);
                }
            }
        }
        self.now = target;
        // Re-seat survivors relative to the new now; expired entries
        // (deadline ≤ target) leave the wheel in deterministic order.
        let mut expired: Vec<Entry<T>> = Vec::new();
        for entry in pending {
            if entry.deadline <= target {
                expired.push(entry);
            } else {
                self.insert(entry);
            }
        }
        expired.sort_by_key(|e| (e.deadline, e.seq));
        self.len -= expired.len();
        out.extend(expired.into_iter().map(|e| (e.deadline, e.value)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_then_seq_order() {
        let mut w = TimerWheel::new();
        w.schedule(50, "b");
        w.schedule(10, "a");
        w.schedule(50, "c"); // same tick as "b", scheduled later
        let mut out = Vec::new();
        w.advance_to(100, &mut out);
        assert_eq!(out, vec![(10, "a"), (50, "b"), (50, "c")]);
        assert!(w.is_empty());
    }

    #[test]
    fn next_deadline_tracks_minimum_across_levels() {
        let mut w = TimerWheel::new();
        w.schedule(1_000_000, 1u32); // level ≥ 3
        assert_eq!(w.next_deadline(), Some(1_000_000));
        w.schedule(63, 2); // level 0
        assert_eq!(w.next_deadline(), Some(63));
        w.schedule(4_096, 3); // level 2
        assert_eq!(w.next_deadline(), Some(63));
        let mut out = Vec::new();
        w.advance_to(63, &mut out);
        assert_eq!(out, vec![(63, 2)]);
        assert_eq!(w.next_deadline(), Some(4_096));
    }

    #[test]
    fn coarse_timers_cascade_to_exact_ticks() {
        let mut w = TimerWheel::new();
        // 64^2 window apart from now: starts on level 2, must still fire
        // exactly at its tick, not at its window boundary.
        w.schedule(4_097, "x");
        let mut out = Vec::new();
        w.advance_to(4_096, &mut out);
        assert!(out.is_empty(), "must not fire a tick early");
        w.advance_to(4_097, &mut out);
        assert_eq!(out, vec![(4_097, "x")]);
    }

    #[test]
    fn overdue_schedule_fires_on_next_advance() {
        let mut w = TimerWheel::new();
        let mut out = Vec::new();
        w.advance_to(500, &mut out);
        w.schedule(100, "late"); // already in the past
        assert_eq!(w.next_deadline(), Some(500));
        w.advance_to(500, &mut out); // no time movement needed
        assert_eq!(out, vec![(100, "late")]);
    }

    #[test]
    fn advance_to_past_is_a_no_op() {
        let mut w = TimerWheel::new();
        let mut out = Vec::new();
        w.advance_to(900, &mut out);
        w.schedule(950, 7u8);
        w.advance_to(100, &mut out);
        assert!(out.is_empty());
        assert_eq!(w.now(), 900);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn dense_random_timers_expire_sorted_and_complete() {
        // A deterministic pseudo-random burst across all levels.
        let mut w = TimerWheel::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut expected: Vec<u64> = Vec::new();
        for i in 0..5_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let deadline = 1 + (state >> 16) % 3_000_000;
            expected.push(deadline);
            w.schedule(deadline, i);
        }
        let mut out = Vec::new();
        // Advance in uneven hops to exercise cascading.
        for hop in [1u64, 63, 64, 65, 4_095, 40_000, 1_000_000, 3_000_000] {
            w.advance_to(hop, &mut out);
            assert!(w.next_deadline().is_none_or(|d| d > hop));
        }
        assert_eq!(out.len(), 5_000);
        assert!(w.is_empty());
        let fired: Vec<u64> = out.iter().map(|(d, _)| *d).collect();
        let mut sorted = expected.clone();
        sorted.sort_unstable();
        assert_eq!(fired, sorted);
        // Same-deadline entries preserved insertion order.
        for pair in out.windows(2) {
            if pair[0].0 == pair[1].0 {
                assert!(pair[0].1 < pair[1].1);
            }
        }
    }

    #[test]
    fn tick_second_conversions_round_trip() {
        assert_eq!(ticks_from_secs(0.0), 0);
        assert_eq!(ticks_from_secs(1.0), TICKS_PER_SEC);
        assert_eq!(ticks_from_secs(1e-9), 1, "positive delays never collapse to zero");
        assert_eq!(ticks_from_secs(f64::INFINITY), MAX_DEADLINE);
        let s = secs_from_ticks(ticks_from_secs(0.25));
        assert!((s - 0.25).abs() < 1e-5);
    }
}
