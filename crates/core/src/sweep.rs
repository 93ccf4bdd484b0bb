//! Incremental, parallelizable evaluation of the Equation 6.3 sweep.
//!
//! The naive sweep recomputes `Θ(r, t1, t2) = Σ Ψ(i, t1, t2)` from
//! scratch for every candidate pair — `O(P²·N)` per partition block for
//! `P` candidate points over `N` tasks. This module exploits the shape of
//! Ψ (Equations 6.1/6.2): **for a fixed `t1`, each task's minimum overlap
//! is a clamped ramp in `t2`**,
//!
//! ```text
//! Ψ_i(t1, t2) = min(h_i, α(t2 − s_i))        α(x) = max(x, 0)
//! ```
//!
//! with a task-specific onset `s_i` and saturation height `h_i`:
//!
//! * non-preemptive (Equation 6.2): the binding terms are the constant
//!   `min(C, α(C − (t1 − E)))` and the two slope-1 terms `t2 − t1` and
//!   `α(C − (L − t2))`; the minimum of two slope-1 ramps is the ramp
//!   starting at the later onset, so `s = max(t1, L − C)` and
//!   `h = min(C, α(C − (t1 − E)))`;
//! * preemptive (Equation 6.1): the work that cannot escape the interval
//!   is `α(C − before − after)` with `before = α(min(L, t1) − E)` slack
//!   before `t1` and `after = α(L − t2)` slack after `t2`, i.e. a ramp of
//!   height `h = α(C − before)` saturating exactly at `t2 = L`, so
//!   `s = L − h`.
//!
//! Each ramp contributes two *slope events* — `+1` at `s`, `−1` at
//! `s + h` — and one pass over the sorted candidate `t2` points with a
//! running slope accumulates `Θ` exactly in integer arithmetic.
//!
//! ## Structure-of-arrays event arenas
//!
//! Re-deriving and re-sorting the event list for every `t1` column costs
//! `O(N log N)` per column. But as `t1` varies, each task's two event
//! positions move through at most three closed-form *regimes* — constant,
//! shifting linearly with `t1`, or pinned to `t1` itself — so a
//! [`BlockArena`] pre-sorts each regime **once per block** into flat
//! struct-of-arrays streams and then *merges* the streams' alive entries
//! per column in `O(N)` without sorting or touching the graph again:
//!
//! * `fixed`: events at a constant position, alive on a `t1` band — the
//!   `+1` at `L − C` and the `−1` at `L` while `t1` is early, and the
//!   non-preemptive late-regime `−1` pinned at `E + C`. Planning
//!   pre-merges the three into one position-sorted stream whose entries
//!   carry their delta and band;
//! * `start_shift` / `end_shift`: events at `s₀ ± t1`, alive on a `t1`
//!   band — sorted by shift key, their relative order is invariant under
//!   the common shift;
//! * `start_at_t1`: non-preemptive ramps whose onset *is* `t1`, coalesced
//!   into one leading `(t1, +count)` event (every other alive event sits
//!   at or beyond `t1`, so the merged list stays sorted).
//!
//! A column is the coalesced `t1` lead followed by a three-cursor merge
//! of `fixed`, `start_shift` and `end_shift`, coalescing same-position
//! deltas whichever stream they come from. The accumulated `Θ` depends
//! only on the *multiset* of slope events, so the merged stream
//! reproduces the sorted per-column list bit for bit.
//!
//! ## Retiring closed entries
//!
//! Within one job the columns run in ascending `t1`, so an entry whose
//! band has ended (`hi < t1`) is dead for every later column of the job.
//! The merge of a column copies the entries still open or not yet open
//! (its *survivors*) into the worker's scratch in the same pass, and the
//! job's next column merges from those instead of the block's streams,
//! so a late column no longer filters out every entry that closed before
//! it. Every column is still merged in full: the emitted events, and the
//! `sweep.events_processed` / `sweep.chunk_events` counts, are those of
//! the non-retiring merge.
//!
//! ## Pruning columns that cannot win
//!
//! For a fixed `t1`, `Θ(t1, ·)` is piecewise linear in `t2`, with
//! breakpoints at the column's merged event positions, and its slope
//! deltas sum to zero (every ramp adds one `+1` and one `−1`). So the
//! ratio `Θ(t1, t2)/(t2 − t1)` is constant from `t1` to the first
//! breakpoint, monotone (a linear-fractional function) between two
//! breakpoints, and falling after the last one, where `Θ` is constant.
//! Its supremum over every real `t2 > t1` is therefore attained at an
//! event position, and it bounds every candidate pair of the column.
//!
//! Each chunk keeps its best pair so far (its *incumbent*, a
//! [`RatioMax`]). One walk over the merged events with the running `Θ`
//! ([`column_can_win`]) asks whether some breakpoint would strictly beat
//! the incumbent — the same strict `>` as [`RatioMax::offer`] — and
//! stops at the first that would. When none would, no pair of the
//! column can replace the incumbent, so the column's pairs are counted
//! (into `intervals_examined` and `sweep.pairs_offered`, and into
//! `sweep.pairs_pruned`) but not offered, and its `t2` walk is skipped.
//! A pair that would not replace the incumbent changes nothing but the
//! count, so maxima, witnesses, the first-wins tie-break and the
//! interval counts stay exactly those of the unpruned sweep for every
//! chunking. Only `sweep.pairs_pruned` depends on the chunking: a
//! chunk's first column has no incumbent and is never pruned.
//!
//! ## One flat plan per sweep, chunked fan-out
//!
//! [`sweep_blocks`] — the one sweep driver behind `analyze`, session
//! creation, and the session's dirty-block re-sweep — plans every block
//! it is given into one [`SweepPlan`]: one arena, one candidate-point
//! array and one job list, with per-block ranges into them. A sweep thus
//! allocates a fixed number of buffers however many blocks it covers.
//! Columns are independent, so each block's `t1` range is split into
//! contiguous chunks ([`crate::exec::chunk_spans`]), one job each, fanned
//! across cores with `std::thread::scope`; each worker reuses one event
//! buffer and two survivor buffers for every chunk it runs. Merging the
//! per-chunk maxima in deterministic ascending-`t1` chunk order with the
//! first-wins strict comparison of [`RatioMax::merge`] reproduces the
//! serial result exactly, whatever the thread count or chunk size.
//!
//! Results are **bit-identical** to the naive sweep (same demands, same
//! candidate pairs counted in the same order, same tie-breaks), which the
//! differential suite in `tests/sweep_equivalence.rs` enforces against
//! [`crate::oracle::naive_bounds`]. The non-retiring merge and the
//! unpruned column walk live on under `#[cfg(test)]` as the oracles of
//! this module's own differential tests.

use std::ops::Range;

use rtlb_graph::{Dur, TaskGraph, TaskId, Time};
use rtlb_obs::{span, Label, Probe};

use crate::analysis::AnalysisOptions;
use crate::bounds::{push_candidate_points, CandidatePolicy, RatioMax};
use crate::cancel::CancelToken;
use crate::error::AnalysisError;
use crate::estlct::TimingAnalysis;
use crate::exec::{chunk_spans, effective_threads, run_jobs};
use crate::partition::{PartitionBlock, ResourcePartition};

/// A slope event of `delta` at a constant position, alive for
/// `lo <= t1 <= hi`.
#[derive(Clone, Copy, Debug)]
struct FixedEvent {
    pos: i64,
    delta: i64,
    lo: i64,
    hi: i64,
}

/// A preemptive mid-regime start event at `key + t1`, alive for
/// `lo <= t1 <= hi`. Sorted by `key`, positions stay sorted for any `t1`.
#[derive(Clone, Copy, Debug)]
struct StartShiftEvent {
    key: i64,
    lo: i64,
    hi: i64,
}

/// A non-preemptive mid-regime end event at `l + e − t1`, alive for
/// `e + 1 <= t1 <= hi`. The position is computed as `l − (t1 − e)` so it
/// never overflows on feasible windows; entries are sorted by `l + e`
/// (widened), which keeps positions sorted for any common `t1`.
#[derive(Clone, Copy, Debug)]
struct EndShiftEvent {
    l: i64,
    e: i64,
    hi: i64,
}

/// A `t1` band: alive for `lo <= t1 <= hi`.
#[derive(Clone, Copy, Debug)]
struct Band {
    lo: i64,
    hi: i64,
}

/// Flat struct-of-arrays slope-event streams of one or more blocks. Each
/// block owns one contiguous, sorted run of every stream (its
/// [`StreamRuns`]); a column merges a block's runs allocation-free. See
/// the module docs for the regime decomposition; the unit tests
/// `arena_streams_match_ramp_decomposition` and
/// `emit_column_matches_coalesced_ramp_events` pin the merged columns
/// against `psi_ramp`.
#[derive(Debug)]
struct BlockArena {
    /// Constant-position events, by position: `+1` at `L − C` (NP
    /// early/mid regime, P early regime), `−1` at `L` (NP early regime,
    /// P early/mid regime) and `−1` at `E + C` (NP late regime).
    fixed: Vec<FixedEvent>,
    /// `+1` at `key + t1` (P mid regime), by key.
    start_shift: Vec<StartShiftEvent>,
    /// `−1` at `L + E − t1` (NP mid regime), by `L + E`.
    end_shift: Vec<EndShiftEvent>,
    /// `+1` at `t1` itself (NP late regime), coalesced per column.
    start_at_t1: Vec<Band>,
}

/// One block's runs of the [`BlockArena`] streams.
#[derive(Clone, Debug)]
struct StreamRuns {
    fixed: Range<usize>,
    start_shift: Range<usize>,
    end_shift: Range<usize>,
    start_at_t1: Range<usize>,
}

/// One block's streams, borrowed from a [`BlockArena`].
#[derive(Clone, Copy, Debug)]
struct BlockStreams<'a> {
    fixed: &'a [FixedEvent],
    start_shift: &'a [StartShiftEvent],
    end_shift: &'a [EndShiftEvent],
    start_at_t1: &'a [Band],
}

impl BlockArena {
    /// An empty arena with room for the streams of `tasks` tasks: at most
    /// three fixed entries and one entry of every other stream per task.
    fn with_capacity(tasks: usize) -> BlockArena {
        BlockArena {
            fixed: Vec::with_capacity(3 * tasks),
            start_shift: Vec::with_capacity(tasks),
            end_shift: Vec::with_capacity(tasks),
            start_at_t1: Vec::with_capacity(tasks),
        }
    }

    /// Appends one block: decomposes every task's ramp into its
    /// per-regime stream entries and sorts the block's run of each stream
    /// once. Requires feasible windows — an infeasible task surfaces as
    /// [`AnalysisError::Infeasible`] here instead of a wrong answer or a
    /// debug assertion, and leaves a partial block the caller discards.
    fn push_block(
        &mut self,
        graph: &TaskGraph,
        timing: &TimingAnalysis,
        tasks: &[TaskId],
    ) -> Result<StreamRuns, AnalysisError> {
        let firsts = (
            self.fixed.len(),
            self.start_shift.len(),
            self.end_shift.len(),
            self.start_at_t1.len(),
        );
        for &t in tasks {
            let task = graph.task(t);
            let w = timing.window(t);
            let (e, l, c) = (w.est.ticks(), w.lct.ticks(), task.computation().ticks());
            if i128::from(e) + i128::from(c) > i128::from(l) {
                return Err(AnalysisError::Infeasible {
                    task: task.name().to_owned(),
                    est: w.est,
                    lct: w.lct,
                });
            }
            if c <= 0 {
                continue; // zero-height ramp: no events at any t1
            }
            // All arithmetic below stays in range because e + c <= l:
            // l − c >= e, l − c − e >= 0, and shifted positions are
            // computed only inside their alive band (see emit_column).
            let early = |pos, delta, until| FixedEvent {
                pos,
                delta,
                lo: i64::MIN,
                hi: until,
            };
            if task.is_preemptive() {
                self.fixed.push(early(l - c, 1, e));
                self.fixed.push(early(l, -1, e + c - 1));
                if c >= 2 {
                    self.start_shift.push(StartShiftEvent {
                        key: (l - c) - e,
                        lo: e + 1,
                        hi: e + c - 1,
                    });
                }
            } else {
                let mid_hi = (l - c).min(e + c - 1);
                self.fixed.push(early(l - c, 1, mid_hi));
                self.fixed.push(early(l, -1, e));
                if e < mid_hi {
                    self.end_shift.push(EndShiftEvent { l, e, hi: mid_hi });
                }
                if l - c < e + c - 1 {
                    let band = Band {
                        lo: l - c + 1,
                        hi: e + c - 1,
                    };
                    self.start_at_t1.push(band);
                    self.fixed.push(FixedEvent {
                        pos: e + c,
                        delta: -1,
                        lo: band.lo,
                        hi: band.hi,
                    });
                }
            }
        }
        let runs = StreamRuns {
            fixed: firsts.0..self.fixed.len(),
            start_shift: firsts.1..self.start_shift.len(),
            end_shift: firsts.2..self.end_shift.len(),
            start_at_t1: firsts.3..self.start_at_t1.len(),
        };
        self.fixed[runs.fixed.clone()].sort_unstable_by_key(|x| x.pos);
        self.start_shift[runs.start_shift.clone()].sort_unstable_by_key(|x| x.key);
        self.end_shift[runs.end_shift.clone()]
            .sort_unstable_by_key(|x| i128::from(x.l) + i128::from(x.e));
        Ok(runs)
    }

    /// The streams of the block that owns `runs`.
    fn streams(&self, runs: &StreamRuns) -> BlockStreams<'_> {
        BlockStreams {
            fixed: &self.fixed[runs.fixed.clone()],
            start_shift: &self.start_shift[runs.start_shift.clone()],
            end_shift: &self.end_shift[runs.end_shift.clone()],
            start_at_t1: &self.start_at_t1[runs.start_at_t1.clone()],
        }
    }

    /// Empties every stream, keeping the allocations.
    fn clear(&mut self) {
        self.fixed.clear();
        self.start_shift.clear();
        self.end_shift.clear();
        self.start_at_t1.clear();
    }

    /// Every stream of the arena, as one block's.
    fn view(&self) -> BlockStreams<'_> {
        BlockStreams {
            fixed: &self.fixed,
            start_shift: &self.start_shift,
            end_shift: &self.end_shift,
            start_at_t1: &self.start_at_t1,
        }
    }

    /// A one-block arena over `tasks`.
    #[cfg(test)]
    fn build(
        graph: &TaskGraph,
        timing: &TimingAnalysis,
        tasks: &[TaskId],
    ) -> Result<BlockArena, AnalysisError> {
        let mut arena = BlockArena::with_capacity(tasks.len());
        arena.push_block(graph, timing, tasks)?;
        Ok(arena)
    }

    /// [`BlockStreams::emit_column`] over the whole arena: the column of
    /// its one block.
    #[cfg(test)]
    fn emit_column(&self, t1: i64, events: &mut Vec<(i64, i64)>) -> u64 {
        self.view().emit_column(t1, events)
    }
}

impl BlockStreams<'_> {
    /// Merges column `t1` into `events`: the alive entries of every
    /// stream, sorted by position, with same-position deltas coalesced.
    /// Returns the number of *raw* ramp slope events represented (what
    /// the pre-arena sweep counted as `sweep.events_processed`), which
    /// can exceed `events.len()` because of coalescing. In the same pass
    /// it copies every entry whose band has not ended before `t1` into
    /// `survivors` (emptied first), in stream order: the only entries a
    /// later column of the same job can see alive, so the next column
    /// merges from them.
    fn emit_and_retire(
        &self,
        t1: i64,
        survivors: &mut BlockArena,
        events: &mut Vec<(i64, i64)>,
    ) -> u64 {
        survivors.clear();
        let mut at_t1 = 0;
        for &band in self.start_at_t1 {
            if t1 <= band.hi {
                survivors.start_at_t1.push(band);
                at_t1 += i64::from(band.lo <= t1);
            }
        }
        merge_column(
            t1,
            at_t1,
            Retiring::new(self.fixed, &mut survivors.fixed, t1),
            Retiring::new(self.start_shift, &mut survivors.start_shift, t1),
            Retiring::new(self.end_shift, &mut survivors.end_shift, t1),
            events,
        )
    }

    /// [`BlockStreams::emit_and_retire`] without the survivors: filters
    /// every entry of the full streams on every column. The oracle the
    /// retiring merge is differentially tested against.
    #[cfg(test)]
    fn emit_column(&self, t1: i64, events: &mut Vec<(i64, i64)>) -> u64 {
        let at_t1 = self
            .start_at_t1
            .iter()
            .filter(|b| b.lo <= t1 && t1 <= b.hi)
            .count() as i64;
        merge_column(
            t1,
            at_t1,
            self.fixed
                .iter()
                .filter(|x| x.lo <= t1 && t1 <= x.hi)
                .map(|x| (x.pos, x.delta)),
            self.start_shift
                .iter()
                .filter(|x| x.lo <= t1 && t1 <= x.hi)
                .map(|x| (x.key + t1, 1)),
            self.end_shift
                .iter()
                .filter(|x| x.e < t1 && t1 <= x.hi)
                .map(|x| (x.l - (t1 - x.e), -1)),
            events,
        )
    }
}

/// A stream entry with a `t1` band: alive on the columns where it is
/// open and not yet closed, and then contributing one slope event.
trait Banded {
    /// Whether the band has started by column `t1`.
    fn is_open(&self, t1: i64) -> bool;

    /// Whether the band ended before column `t1` — for good, since a
    /// job's columns only grow.
    fn is_closed(&self, t1: i64) -> bool;

    /// The `(position, delta)` slope event at `t1`. Only meaningful (and
    /// only free of overflow) while the entry is alive.
    fn event(&self, t1: i64) -> (i64, i64);
}

impl Banded for FixedEvent {
    fn is_open(&self, t1: i64) -> bool {
        self.lo <= t1
    }

    fn is_closed(&self, t1: i64) -> bool {
        self.hi < t1
    }

    fn event(&self, _: i64) -> (i64, i64) {
        (self.pos, self.delta)
    }
}

impl Banded for StartShiftEvent {
    fn is_open(&self, t1: i64) -> bool {
        self.lo <= t1
    }

    fn is_closed(&self, t1: i64) -> bool {
        self.hi < t1
    }

    fn event(&self, t1: i64) -> (i64, i64) {
        (self.key + t1, 1)
    }
}

impl Banded for EndShiftEvent {
    fn is_open(&self, t1: i64) -> bool {
        self.e < t1
    }

    fn is_closed(&self, t1: i64) -> bool {
        self.hi < t1
    }

    fn event(&self, t1: i64) -> (i64, i64) {
        (self.l - (t1 - self.e), -1)
    }
}

/// A cursor over one stream at column `t1`: yields the events of the
/// alive entries in stream order, and copies every entry whose band has
/// not ended — alive, or not yet open — to `survivors`.
struct Retiring<'a, T> {
    entries: std::slice::Iter<'a, T>,
    survivors: &'a mut Vec<T>,
    t1: i64,
}

impl<'a, T> Retiring<'a, T> {
    fn new(entries: &'a [T], survivors: &'a mut Vec<T>, t1: i64) -> Self {
        Retiring {
            entries: entries.iter(),
            survivors,
            t1,
        }
    }
}

impl<T: Banded + Copy> Iterator for Retiring<'_, T> {
    type Item = (i64, i64);

    fn next(&mut self) -> Option<(i64, i64)> {
        for &entry in self.entries.by_ref() {
            if entry.is_closed(self.t1) {
                continue;
            }
            self.survivors.push(entry);
            if entry.is_open(self.t1) {
                return Some(entry.event(self.t1));
            }
        }
        None
    }
}

/// Writes one column into `events`: the coalesced `(t1, at_t1)` lead,
/// then the position-ordered merge of the `fixed`, `starts` and `ends`
/// events (each already in position order), with same-position deltas
/// coalesced. Drains all three iterators, and returns the number of raw
/// ramp slope events represented.
fn merge_column(
    t1: i64,
    at_t1: i64,
    mut fixed: impl Iterator<Item = (i64, i64)>,
    mut starts: impl Iterator<Item = (i64, i64)>,
    mut ends: impl Iterator<Item = (i64, i64)>,
    events: &mut Vec<(i64, i64)>,
) -> u64 {
    events.clear();

    // NP late-regime starts sit exactly at t1 — the minimum possible
    // position (every alive event is at or beyond t1) — so the
    // coalesced (t1, +count) event leads the merged list.
    if at_t1 > 0 {
        events.push((t1, at_t1));
    }
    let mut raw = at_t1 as u64;
    let mut push = |(pos, delta): (i64, i64)| {
        debug_assert!(pos >= t1, "alive events never precede t1");
        raw += 1;
        match events.last_mut() {
            Some(last) if last.0 == pos => last.1 += delta,
            _ => events.push((pos, delta)),
        }
    };
    // Take the lowest head while two or more cursors are live, then
    // drain the last one. Ties may go either way: same-position
    // deltas coalesce whatever their order.
    let (mut f, mut s, mut e) = (fixed.next(), starts.next(), ends.next());
    loop {
        match (f, s, e) {
            (Some(a), Some(b), Some(c)) => {
                if a.0 <= b.0 && a.0 <= c.0 {
                    push(a);
                    f = fixed.next();
                } else if b.0 <= c.0 {
                    push(b);
                    s = starts.next();
                } else {
                    push(c);
                    e = ends.next();
                }
            }
            (Some(a), Some(b), None) => {
                if a.0 <= b.0 {
                    push(a);
                    f = fixed.next();
                } else {
                    push(b);
                    s = starts.next();
                }
            }
            (Some(a), None, Some(c)) => {
                if a.0 <= c.0 {
                    push(a);
                    f = fixed.next();
                } else {
                    push(c);
                    e = ends.next();
                }
            }
            (None, Some(b), Some(c)) => {
                if b.0 <= c.0 {
                    push(b);
                    s = starts.next();
                } else {
                    push(c);
                    e = ends.next();
                }
            }
            (Some(a), None, None) => {
                push(a);
                fixed.for_each(&mut push);
                break;
            }
            (None, Some(b), None) => {
                push(b);
                starts.for_each(&mut push);
                break;
            }
            (None, None, Some(c)) => {
                push(c);
                ends.for_each(&mut push);
                break;
            }
            (None, None, None) => break,
        }
    }
    debug_assert!(events.windows(2).all(|w| w[0].0 < w[1].0));
    raw
}

/// One task's `Ψ(t1, ·)` as a clamped ramp: zero up to `start`, slope 1
/// for `height` ticks, then saturated. The reference decomposition the
/// arena streams are differentially tested against.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ramp {
    start: i64,
    height: i64,
}

/// Decomposes `Ψ(i, t1, ·)` into its ramp, or `None` when the task can
/// dodge the interval entirely (height 0). Requires a feasible window.
#[cfg(test)]
fn psi_ramp(
    window: crate::estlct::TaskWindow,
    c: Dur,
    mode: rtlb_graph::ExecutionMode,
    t1: Time,
) -> Option<Ramp> {
    let (e, l, c, t1) = (
        window.est.ticks(),
        window.lct.ticks(),
        c.ticks(),
        t1.ticks(),
    );
    debug_assert!(
        e + c <= l,
        "incremental sweep requires feasible windows (E + C <= L)"
    );
    let ramp = match mode {
        rtlb_graph::ExecutionMode::NonPreemptive => Ramp {
            start: t1.max(l - c),
            height: c.min((c - (t1 - e)).max(0)),
        },
        rtlb_graph::ExecutionMode::Preemptive => {
            let before = (l.min(t1) - e).max(0);
            let height = (c - before).max(0);
            Ramp {
                start: l - height,
                height,
            }
        }
    };
    if ramp.height <= 0 {
        return None;
    }
    // The sweep starts accumulating at t1; an event before that would be
    // silently skipped. Feasibility guarantees it cannot happen.
    debug_assert!(ramp.start >= t1);
    Some(ramp)
}

/// Whether some pair `(t1, t2)` of column `t1`, for any real `t2 > t1`,
/// would replace `max`'s incumbent ([`RatioMax::would_take`]). By the
/// breakpoint lemma (see the module docs) the best such `t2` is one of
/// the merged `events`' positions beyond `t1`, so one walk of them with
/// the running `Θ` decides, stopping at the first that would. With no
/// event beyond `t1`, `Θ(t1, ·)` is 0, which only an empty incumbent
/// takes.
fn column_can_win(t1: i64, events: &[(i64, i64)], max: &RatioMax) -> bool {
    let (mut value, mut slope, mut pos) = (0i64, 0i64, t1);
    for &(at, delta) in events {
        value += slope * (at - pos);
        pos = at;
        slope += delta;
        if at > t1 && max.would_take(value, at - t1) {
            return true;
        }
    }
    max.would_take(0, 1)
}

/// Sweeps one `t1` column into `max` and returns how many of its pairs
/// were pruned. When [`column_can_win`] says no pair of the column
/// would replace `max`'s incumbent, they are only counted. Otherwise
/// walks the candidate `t2` points once with a running slope over the
/// pre-merged `events`, offering every pair to `max` — exactly the
/// accumulation the sorted per-column event list produced, because `Θ`
/// depends only on the event multiset.
fn accumulate_column(points: &[Time], li: usize, events: &[(i64, i64)], max: &mut RatioMax) -> u64 {
    let t1 = points[li];
    if !column_can_win(t1.ticks(), events, max) {
        let pairs = (points.len() - li - 1) as u64;
        max.count_pruned(pairs);
        return pairs;
    }
    let (mut value, mut slope, mut pos) = (0i64, 0i64, t1.ticks());
    let mut next_event = 0;
    for &t2 in &points[li + 1..] {
        let at_t2 = t2.ticks();
        while next_event < events.len() && events[next_event].0 <= at_t2 {
            let (at, delta) = events[next_event];
            value += slope * (at - pos);
            pos = at;
            slope += delta;
            next_event += 1;
        }
        value += slope * (at_t2 - pos);
        pos = at_t2;
        max.offer(Dur::new(value), t1, t2);
    }
    0
}

/// [`accumulate_column`] without pruning: offers every pair. The oracle
/// the pruned sweep is differentially tested against.
#[cfg(test)]
fn accumulate_column_unpruned(
    points: &[Time],
    li: usize,
    events: &[(i64, i64)],
    max: &mut RatioMax,
) {
    let t1 = points[li];
    let (mut value, mut slope, mut pos) = (0i64, 0i64, t1.ticks());
    let mut next_event = 0;
    for &t2 in &points[li + 1..] {
        let at_t2 = t2.ticks();
        while next_event < events.len() && events[next_event].0 <= at_t2 {
            let (at, delta) = events[next_event];
            value += slope * (at - pos);
            pos = at;
            slope += delta;
            next_event += 1;
        }
        value += slope * (at_t2 - pos);
        pos = at_t2;
        max.offer(Dur::new(value), t1, t2);
    }
}

/// Per-chunk sweep counters: raw ramp slope events processed (the
/// pre-arena `sweep.events_processed` accounting), merged event
/// entries actually walked (`sweep.chunk_events` — smaller whenever
/// coalescing collapses same-position deltas) and candidate pairs
/// counted without being offered (`sweep.pairs_pruned`).
#[derive(Clone, Copy, Debug, Default)]
struct ChunkCounters {
    raw_events: u64,
    merged_events: u64,
    pruned_pairs: u64,
}

/// One worker's scratch, reused for every job it runs: the stream
/// entries that survived the job's previous column, the buffer the
/// current column's survivors go to, and the column's event buffer.
struct ColumnScratch {
    live: BlockArena,
    next: BlockArena,
    events: Vec<(i64, i64)>,
}

/// One planned block: its runs of the plan's arena and its candidate
/// points in the plan's point array.
#[derive(Debug)]
struct PlannedBlock {
    runs: StreamRuns,
    points: Range<usize>,
}

/// Every block of one [`sweep_blocks`] call, planned flat: one event
/// arena, one array of every block's candidate points and one job list,
/// with per-block ranges into them. Jobs are independent units of work
/// whose maxima merge back per block in job order.
#[derive(Debug)]
struct SweepPlan {
    arena: BlockArena,
    points: Vec<Time>,
    blocks: Vec<PlannedBlock>,
    /// One job per contiguous `t1` chunk: its block, and its columns as
    /// indices into that block's points, in (block, chunk) order.
    jobs: Vec<(usize, Range<usize>)>,
    /// The task count of the largest block, which sizes each worker's
    /// [`ColumnScratch`].
    max_tasks: usize,
}

impl SweepPlan {
    /// Plans `blocks` in input order, so a planning error surfaces in the
    /// order a serial sweep would hit it: builds each block's event
    /// streams and candidate grid, and splits its `t1` range off the
    /// worker pool (`chunk_columns` forces a size, `0` auto-sizes; see
    /// [`chunk_spans`]).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Infeasible`] if a swept task's window cannot
    /// contain its computation.
    fn new(
        graph: &TaskGraph,
        timing: &TimingAnalysis,
        blocks: &[(usize, PartitionBlock<'_>)],
        policy: CandidatePolicy,
        threads: usize,
        chunk_columns: usize,
    ) -> Result<SweepPlan, AnalysisError> {
        let tasks: usize = blocks.iter().map(|(_, block)| block.tasks.len()).sum();
        let mut plan = SweepPlan {
            arena: BlockArena::with_capacity(tasks),
            points: Vec::with_capacity(tasks * policy.points_per_task()),
            blocks: Vec::with_capacity(blocks.len()),
            jobs: Vec::with_capacity(blocks.len()),
            max_tasks: 0,
        };
        for (bi, (_, block)) in blocks.iter().enumerate() {
            let runs = plan.arena.push_block(graph, timing, block.tasks)?;
            let first = plan.points.len();
            push_candidate_points(graph, timing, block.tasks, policy, &mut plan.points);
            let points = first..plan.points.len();
            let columns = points.len().saturating_sub(1);
            plan.jobs
                .extend(chunk_spans(columns, threads, chunk_columns).map(|span| (bi, span)));
            plan.max_tasks = plan.max_tasks.max(block.tasks.len());
            plan.blocks.push(PlannedBlock { runs, points });
        }
        Ok(plan)
    }

    /// A worker's scratch, large enough for every block of the plan, so
    /// merging a column never allocates.
    fn scratch(&self) -> ColumnScratch {
        ColumnScratch {
            live: BlockArena::with_capacity(self.max_tasks),
            next: BlockArena::with_capacity(self.max_tasks),
            // Two events per task plus the coalesced `t1` lead.
            events: Vec::with_capacity(2 * self.max_tasks + 1),
        }
    }

    /// Sweeps job `job` into `max`, polling `ctl` once per `t1` column
    /// (the interruption checkpoint — a column is the unit of work
    /// between checks, so cancellation latency is one column, not one
    /// whole chunk). `scratch` is the calling worker's: the job's first
    /// column merges from the block's streams, every later one from the
    /// entries that survived the column before it.
    fn sweep_job(
        &self,
        job: usize,
        scratch: &mut ColumnScratch,
        max: &mut RatioMax,
        ctl: &CancelToken,
    ) -> Result<ChunkCounters, AnalysisError> {
        let (bi, ref columns) = self.jobs[job];
        let block = &self.blocks[bi];
        let streams = self.arena.streams(&block.runs);
        let ColumnScratch { live, next, events } = scratch;
        let points = &self.points[block.points.clone()];
        let mut counters = ChunkCounters::default();
        for li in columns.clone() {
            ctl.check()?;
            let from = if li == columns.start {
                streams
            } else {
                live.view()
            };
            counters.raw_events += from.emit_and_retire(points[li].ticks(), next, events);
            std::mem::swap(live, next);
            counters.merged_events += events.len() as u64;
            counters.pruned_pairs += accumulate_column(points, li, events, max);
        }
        Ok(counters)
    }
}

/// Sweeps every block of `blocks` into one [`RatioMax`], returned in
/// input order, fanning the work across `options.parallelism` threads
/// (`0` = all available cores, `1` = serial). Each entry pairs a block
/// with the index that labels its `sweep.chunk` spans (the partition's
/// position in the run).
///
/// Every block is planned first ([`SweepPlan::new`]). Blocks are split
/// into contiguous `t1` chunks for load balance, one job per chunk, and
/// chunk maxima fold back per block in ascending-`t1` order with the
/// serial first-wins tie-break — bit-identical for any thread count and
/// chunk size. On error (the first in job order wins) all partial maxima
/// are discarded; workers that observe a tripped `ctl` stop at their
/// next column boundary.
///
/// Reports the `sweep.blocks` / `sweep.jobs` / `sweep.chunks` counters,
/// a `sweep.worker` span per worker thread, a `sweep.chunk` span per
/// job, and per chunk the `sweep.pairs_offered` / `sweep.pairs_pruned` /
/// `sweep.events_processed` / `sweep.chunk_events` counters and the
/// `sweep.events_per_chunk` distribution. `sweep.pairs_offered` counts
/// every candidate pair, pruned or not, and so equals the bounds'
/// `intervals_examined`; `sweep.pairs_pruned` follows the chunking.
/// Instrumentation is observational only.
///
/// # Errors
///
/// [`AnalysisError::Infeasible`] as in [`SweepPlan::new`], or
/// [`AnalysisError::Deadline`] when `ctl` trips.
pub(crate) fn sweep_blocks(
    graph: &TaskGraph,
    timing: &TimingAnalysis,
    blocks: &[(usize, PartitionBlock<'_>)],
    options: &AnalysisOptions,
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<Vec<RatioMax>, AnalysisError> {
    let threads = effective_threads(options.parallelism);
    let plan = SweepPlan::new(
        graph,
        timing,
        blocks,
        options.candidates,
        threads,
        options.chunk_columns,
    )?;

    probe.add("sweep.blocks", plan.blocks.len() as u64);
    probe.add("sweep.jobs", plan.jobs.len() as u64);
    probe.add("sweep.chunks", plan.jobs.len() as u64);

    let chunk_maxima = run_jobs(
        probe,
        threads,
        plan.jobs.len(),
        || plan.scratch(),
        |scratch, job| {
            let label = Label::Index(blocks[plan.jobs[job].0].0 as u64);
            let _chunk = span(probe, "sweep.chunk", label);
            let mut max = RatioMax::default();
            let counters = plan.sweep_job(job, scratch, &mut max, ctl)?;
            probe.add("sweep.pairs_offered", max.intervals());
            probe.add("sweep.pairs_pruned", counters.pruned_pairs);
            probe.add("sweep.events_processed", counters.raw_events);
            probe.add("sweep.chunk_events", counters.merged_events);
            probe.observe("sweep.events_per_chunk", counters.merged_events);
            Ok(max)
        },
    );

    let mut folded = vec![RatioMax::default(); plan.blocks.len()];
    for ((bi, _), max) in plan.jobs.iter().zip(chunk_maxima) {
        folded[*bi].merge(max?);
    }
    Ok(folded)
}

/// [`sweep_blocks`] over every block of `partitions`, regrouped into one
/// [`RatioMax`] per block per partition; chunk spans carry the partition
/// index.
///
/// # Errors
///
/// Same as [`sweep_blocks`].
pub(crate) fn sweep_partitions(
    graph: &TaskGraph,
    timing: &TimingAnalysis,
    partitions: &[ResourcePartition],
    options: &AnalysisOptions,
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<Vec<Vec<RatioMax>>, AnalysisError> {
    let blocks: Vec<(usize, PartitionBlock<'_>)> = partitions
        .iter()
        .enumerate()
        .flat_map(|(pi, p)| p.blocks().map(move |b| (pi, b)))
        .collect();
    let mut maxima = sweep_blocks(graph, timing, &blocks, options, probe, ctl)?.into_iter();
    Ok(partitions
        .iter()
        .map(|p| maxima.by_ref().take(p.block_count()).collect())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{fold_bound, ResourceBound};
    use crate::estlct::{compute_timing, TaskWindow};
    use crate::model::SystemModel;
    use crate::oracle::naive_bounds;
    use crate::overlap::overlap;
    use crate::partition::partition_all;
    use rtlb_graph::{Catalog, ExecutionMode, ResourceId, TaskGraphBuilder, TaskSpec};
    use rtlb_obs::NULL_PROBE;

    /// The ramp decomposition must equal Equation 6.1/6.2 pointwise on
    /// every feasible small window, both modes, all t1 < t2.
    #[test]
    fn ramp_matches_overlap_exhaustively() {
        for e in 0..6 {
            for l in (e + 1)..10 {
                for c in 1..=(l - e) {
                    let window = TaskWindow {
                        est: Time::new(e),
                        lct: Time::new(l),
                    };
                    for mode in [ExecutionMode::NonPreemptive, ExecutionMode::Preemptive] {
                        for t1 in -2..12 {
                            let ramp = psi_ramp(window, Dur::new(c), mode, Time::new(t1));
                            for t2 in (t1 + 1)..14 {
                                let expect = overlap(
                                    window,
                                    Dur::new(c),
                                    mode,
                                    Time::new(t1),
                                    Time::new(t2),
                                )
                                .ticks();
                                let got = ramp.map_or(0, |r| (t2 - r.start).clamp(0, r.height));
                                assert_eq!(
                                    got, expect,
                                    "window [{e},{l}] C={c} {mode:?} interval [{t1},{t2}]"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Builds a one-task graph with the given window and mode, returning
    /// everything needed to construct its arena.
    fn single_task(e: i64, l: i64, c: i64, mode: ExecutionMode) -> (rtlb_graph::TaskGraph, TaskId) {
        let mut cat = Catalog::new();
        let p = cat.processor("P");
        let mut b = TaskGraphBuilder::new(cat);
        let mut spec = TaskSpec::new("t", Dur::new(c), p)
            .release(Time::new(e))
            .deadline(Time::new(l));
        if mode == ExecutionMode::Preemptive {
            spec = spec.preemptive();
        }
        let t = b.add_task(spec).unwrap();
        (b.build().unwrap(), t)
    }

    /// The arena's merged per-column event stream must reproduce the
    /// psi_ramp event multiset — position-sorted, delta-coalesced — on
    /// every feasible small window, both modes, every t1. This is the
    /// differential pin that lets the sort-free merge replace the
    /// per-column sort.
    #[test]
    fn arena_streams_match_ramp_decomposition() {
        for e in 0..6 {
            for l in (e + 1)..10 {
                for c in 1..=(l - e) {
                    for mode in [ExecutionMode::NonPreemptive, ExecutionMode::Preemptive] {
                        let (g, t) = single_task(e, l, c, mode);
                        let timing = compute_timing(&g, &SystemModel::shared());
                        // Pin the synthetic window (precedence-free, so
                        // EST = release, LCT = deadline).
                        assert_eq!(timing.window(t).est.ticks(), e);
                        assert_eq!(timing.window(t).lct.ticks(), l);
                        let arena = BlockArena::build(&g, &timing, &[t]).unwrap();
                        let mut events = Vec::new();
                        for t1 in -2..12 {
                            let raw = arena.emit_column(t1, &mut events);
                            let window = TaskWindow {
                                est: Time::new(e),
                                lct: Time::new(l),
                            };
                            let expect: Vec<(i64, i64)> =
                                match psi_ramp(window, Dur::new(c), mode, Time::new(t1)) {
                                    None => Vec::new(),
                                    Some(r) if r.height == 0 => Vec::new(),
                                    Some(r) => {
                                        vec![(r.start, 1), (r.start + r.height, -1)]
                                    }
                                };
                            assert_eq!(
                                raw,
                                expect.len() as u64,
                                "[{e},{l}] C={c} {mode:?} t1={t1}"
                            );
                            assert_eq!(events, expect, "window [{e},{l}] C={c} {mode:?} t1={t1}");
                        }
                    }
                }
            }
        }
    }

    /// Independent tasks on one processor, one per `(release, width, C,
    /// preemptive)` spec, with `C` folded into `1..=width` so every
    /// window is feasible. Precedence-free, so EST = release and LCT =
    /// release + width.
    fn block_of(specs: &[(i64, i64, i64, bool)]) -> (rtlb_graph::TaskGraph, Vec<TaskId>) {
        let mut cat = Catalog::new();
        let p = cat.processor("P");
        let mut b = TaskGraphBuilder::new(cat);
        let tasks = specs
            .iter()
            .enumerate()
            .map(|(i, &(e, width, c, preemptive))| {
                let c = 1 + (c - 1) % width;
                let mut spec = TaskSpec::new(format!("t{i}"), Dur::new(c), p)
                    .release(Time::new(e))
                    .deadline(Time::new(e + width));
                if preemptive {
                    spec = spec.preemptive();
                }
                b.add_task(spec).unwrap()
            })
            .collect();
        (b.build().unwrap(), tasks)
    }

    proptest::proptest! {
        /// The per-column merge against the ramp decomposition on whole
        /// blocks: for every `t1` on and off the candidate grid, the
        /// emitted list is the position-sorted, delta-coalesced multiset
        /// of every member's `psi_ramp` events, and the raw count is the
        /// size of that multiset. Blocks this dense put position ties
        /// across streams, coalesced deltas and dead entries between
        /// live ones into almost every column.
        #[test]
        fn emit_column_matches_coalesced_ramp_events(
            specs in proptest::collection::vec(
                (0i64..16, 1i64..12, 1i64..12, proptest::prelude::any::<bool>()),
                1..=12,
            ),
        ) {
            let (g, tasks) = block_of(&specs);
            let timing = compute_timing(&g, &SystemModel::shared());
            let arena = BlockArena::build(&g, &timing, &tasks).unwrap();
            let mut events = Vec::new();
            // Windows lie inside [0, 27]: this covers every candidate
            // point with off-grid columns on both sides.
            for t1 in -2..30 {
                let mut ramp_events = Vec::new();
                for &t in &tasks {
                    let task = g.task(t);
                    let (window, c) = (timing.window(t), task.computation());
                    if let Some(r) = psi_ramp(window, c, task.mode(), Time::new(t1)) {
                        ramp_events.push((r.start, 1));
                        ramp_events.push((r.start + r.height, -1));
                    }
                }
                ramp_events.sort_by_key(|&(pos, _)| pos);
                let mut expect: Vec<(i64, i64)> = Vec::new();
                for &(pos, delta) in &ramp_events {
                    match expect.last_mut() {
                        Some(last) if last.0 == pos => last.1 += delta,
                        _ => expect.push((pos, delta)),
                    }
                }
                let raw = arena.emit_column(t1, &mut events);
                let expect_raw = ramp_events.len() as u64;
                proptest::prop_assert_eq!(raw, expect_raw, "raw count at t1 = {}", t1);
                proptest::prop_assert_eq!(&events, &expect, "merged column at t1 = {}", t1);
            }
        }
    }

    /// The unpruned, non-retiring sweep of one block: every column
    /// merged by [`BlockStreams::emit_column`] and every pair offered by
    /// [`accumulate_column_unpruned`], serially.
    fn unpruned_block_max(
        g: &rtlb_graph::TaskGraph,
        timing: &TimingAnalysis,
        tasks: &[TaskId],
        policy: CandidatePolicy,
    ) -> RatioMax {
        let arena = BlockArena::build(g, timing, tasks).unwrap();
        let points = crate::bounds::candidate_points(g, timing, tasks, policy);
        let mut events = Vec::new();
        let mut max = RatioMax::default();
        for li in 0..points.len().saturating_sub(1) {
            arena.emit_column(points[li].ticks(), &mut events);
            accumulate_column_unpruned(&points, li, &events, &mut max);
        }
        max
    }

    proptest::proptest! {
        /// The breakpoint walk against brute force over every `t2`. On
        /// every column, on and off the candidate grid, the merged deltas
        /// sum to 0, and `column_can_win` says yes exactly when some
        /// integer `t2 > t1` has a ratio `Θ(t1, t2)/(t2 − t1)` the
        /// incumbent would give way to. Every event sits at an integer
        /// position inside the range tried, so by the breakpoint lemma
        /// no real `t2` can do better than those. The incumbents tried
        /// are none, zero, and each ratio of the column both exactly and
        /// just below it, so the bound is at least every ratio and the
        /// walk misses none.
        #[test]
        fn column_can_win_matches_brute_force(
            specs in proptest::collection::vec(
                (0i64..16, 1i64..12, 1i64..12, proptest::prelude::any::<bool>()),
                1..=12,
            ),
        ) {
            let (g, tasks) = block_of(&specs);
            let timing = compute_timing(&g, &SystemModel::shared());
            let arena = BlockArena::build(&g, &timing, &tasks).unwrap();
            let mut events = Vec::new();
            // Windows lie inside [0, 27], so every event does too.
            for t1 in -2..30i64 {
                arena.emit_column(t1, &mut events);
                let deltas: i64 = events.iter().map(|&(_, delta)| delta).sum();
                proptest::prop_assert_eq!(deltas, 0, "slope deltas at t1 = {}", t1);
                let ratios: Vec<(i64, i64)> = (t1 + 1..=40)
                    .map(|t2| {
                        let theta = crate::bounds::theta(
                            &g, &timing, &tasks, Time::new(t1), Time::new(t2),
                        );
                        (theta.ticks(), t2 - t1)
                    })
                    .collect();
                let mut incumbents = vec![None, Some((0, 1))];
                for &(theta, length) in &ratios {
                    incumbents.push(Some((theta, length)));
                    if theta > 0 {
                        incumbents.push(Some((2 * theta - 1, 2 * length)));
                    }
                }
                for incumbent in incumbents {
                    let mut max = RatioMax::default();
                    if let Some((demand, length)) = incumbent {
                        max.offer(Dur::new(demand), Time::ZERO, Time::new(length));
                    }
                    let brute = ratios.iter().any(|&(theta, length)| max.would_take(theta, length));
                    proptest::prop_assert_eq!(
                        column_can_win(t1, &events, &max),
                        brute,
                        "t1 = {}, incumbent {:?}", t1, incumbent
                    );
                }
            }
        }

        /// The retiring merge against the non-retiring oracle: merging
        /// each column of any ascending run from the survivors of the
        /// one before (the first from the block's streams) emits exactly
        /// the oracle's events and raw counts at each of them.
        #[test]
        fn retiring_merge_matches_emit_column(
            specs in proptest::collection::vec(
                (0i64..16, 1i64..12, 1i64..12, proptest::prelude::any::<bool>()),
                1..=12,
            ),
            start in -2i64..30,
            steps in proptest::collection::vec(0i64..4, 1..24),
        ) {
            let (g, tasks) = block_of(&specs);
            let timing = compute_timing(&g, &SystemModel::shared());
            let arena = BlockArena::build(&g, &timing, &tasks).unwrap();
            let (mut live, mut next) = (BlockArena::with_capacity(0), BlockArena::with_capacity(0));
            let (mut expect, mut got) = (Vec::new(), Vec::new());
            let mut t1 = start;
            for (k, step) in steps.into_iter().enumerate() {
                t1 += step;
                let expect_raw = arena.emit_column(t1, &mut expect);
                let from = if k == 0 { arena.view() } else { live.view() };
                let raw = from.emit_and_retire(t1, &mut next, &mut got);
                std::mem::swap(&mut live, &mut next);
                proptest::prop_assert_eq!(raw, expect_raw, "raw count at t1 = {}", t1);
                proptest::prop_assert_eq!(&got, &expect, "merged column at t1 = {}", t1);
            }
        }

        /// The pruned, retiring sweep against the unpruned, non-retiring
        /// one on one block of both modes: the same witness, demand and
        /// interval count under both candidate policies, for every chunk
        /// size from 1 to 8 columns on one and two threads.
        #[test]
        fn pruned_sweep_matches_unpruned(
            specs in proptest::collection::vec(
                (0i64..16, 1i64..12, 1i64..12, proptest::prelude::any::<bool>()),
                1..=12,
            ),
        ) {
            let (g, tasks) = block_of(&specs);
            let timing = compute_timing(&g, &SystemModel::shared());
            let block = PartitionBlock {
                tasks: &tasks,
                start: Time::ZERO,
                finish: Time::ZERO,
            };
            for policy in [CandidatePolicy::EstLct, CandidatePolicy::Extended] {
                let expect = unpruned_block_max(&g, &timing, &tasks, policy);
                for chunk_columns in 1..=8 {
                    for threads in 1..=2 {
                        let got = sweep_blocks(
                            &g,
                            &timing,
                            &[(0, block)],
                            &options(policy, threads, chunk_columns),
                            &NULL_PROBE,
                            &CancelToken::none(),
                        )
                        .unwrap();
                        proptest::prop_assert_eq!(
                            got[0], expect,
                            "{:?}, chunk {}, {} thread(s)", policy, chunk_columns, threads
                        );
                    }
                }
            }
        }
    }

    /// The breakpoint walk on hand-checked columns.
    #[test]
    fn column_can_win_on_small_columns() {
        let incumbent = |demand, length| {
            let mut max = RatioMax::default();
            max.offer(Dur::new(demand), Time::ZERO, Time::new(length));
            max
        };
        // A lone ramp: Θ(0, 4) = 4 is ratio 1, so it beats 3/4 but not 1.
        let ramp = [(0, 1), (4, -1)];
        assert!(column_can_win(0, &ramp, &incumbent(3, 4)));
        assert!(!column_can_win(0, &ramp, &incumbent(1, 1)));
        // Nothing beyond t1: Θ is 0, which only an empty incumbent takes.
        assert!(column_can_win(3, &[(3, 0)], &RatioMax::default()));
        assert!(!column_can_win(3, &[], &incumbent(0, 1)));
        // Θ(1, 3) = 4 is ratio 2; past the last breakpoint Θ stays 5,
        // so the ratio only falls and 2 is the column's best.
        let falls = [(1, 2), (3, -1), (4, -1)];
        assert!(column_can_win(1, &falls, &incumbent(19, 10)));
        assert!(!column_can_win(1, &falls, &incumbent(2, 1)));
    }

    /// Mixed-mode fixture with several partition blocks.
    fn fixture() -> (rtlb_graph::TaskGraph, ResourceId) {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        let windows = [
            (0, 4, 3, false),
            (1, 5, 2, true),
            (2, 9, 4, false),
            (8, 12, 4, false),
            (9, 14, 3, true),
            (20, 22, 2, false),
            (19, 26, 5, true),
        ];
        for (i, &(rel, d, comp, pre)) in windows.iter().enumerate() {
            let mut spec = TaskSpec::new(format!("t{i}"), Dur::new(comp), p)
                .release(Time::new(rel))
                .deadline(Time::new(d));
            if pre {
                spec = spec.preemptive();
            }
            b.add_task(spec).unwrap();
        }
        (b.build().unwrap(), p)
    }

    /// The sweep knobs under test.
    fn options(
        candidates: CandidatePolicy,
        parallelism: usize,
        chunk_columns: usize,
    ) -> AnalysisOptions {
        AnalysisOptions {
            candidates,
            parallelism,
            chunk_columns,
            ..AnalysisOptions::default()
        }
    }

    /// Sweeps every partition through the driver and folds one bound per
    /// resource, as the pipeline does.
    fn sweep(
        g: &rtlb_graph::TaskGraph,
        timing: &TimingAnalysis,
        partitions: &[ResourcePartition],
        options: AnalysisOptions,
        probe: &dyn Probe,
        ctl: &CancelToken,
    ) -> Result<Vec<ResourceBound>, AnalysisError> {
        let maxima = sweep_partitions(g, timing, partitions, &options, probe, ctl)?;
        partitions
            .iter()
            .zip(maxima)
            .map(|(p, maxima)| fold_bound(p.resource, &maxima, &[]))
            .collect()
    }

    /// [`sweep`] without a probe or a deadline.
    fn sweep_plain(
        g: &rtlb_graph::TaskGraph,
        timing: &TimingAnalysis,
        partitions: &[ResourcePartition],
        candidates: CandidatePolicy,
        parallelism: usize,
        chunk_columns: usize,
    ) -> Vec<ResourceBound> {
        let options = options(candidates, parallelism, chunk_columns);
        sweep(
            g,
            timing,
            partitions,
            options,
            &NULL_PROBE,
            &CancelToken::none(),
        )
        .unwrap()
    }

    #[test]
    fn incremental_matches_naive_including_witness_and_count() {
        let (g, _) = fixture();
        let timing = compute_timing(&g, &SystemModel::shared());
        let partitions = partition_all(&g, &timing);
        for policy in [CandidatePolicy::EstLct, CandidatePolicy::Extended] {
            let naive = naive_bounds(&g, &timing, &partitions, policy).unwrap();
            let inc = sweep_plain(&g, &timing, &partitions, policy, 1, 0);
            assert_eq!(naive, inc, "policy {policy:?}");
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let (g, _) = fixture();
        let timing = compute_timing(&g, &SystemModel::shared());
        let partitions = partition_all(&g, &timing);
        let serial = sweep_plain(&g, &timing, &partitions, CandidatePolicy::Extended, 1, 0);
        for threads in [0, 2, 3, 8] {
            let par = sweep_plain(
                &g,
                &timing,
                &partitions,
                CandidatePolicy::Extended,
                threads,
                0,
            );
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    /// Forcing explicit chunk sizes — including size 1, one job per t1
    /// column — must leave every bound, witness, and interval count
    /// bit-identical, serial and parallel alike.
    #[test]
    fn explicit_chunk_sizes_are_bit_identical() {
        let (g, _) = fixture();
        let timing = compute_timing(&g, &SystemModel::shared());
        let partitions = partition_all(&g, &timing);
        let serial = sweep_plain(&g, &timing, &partitions, CandidatePolicy::Extended, 1, 0);
        for chunk_columns in [1, 2, 3, 7] {
            for threads in [1, 2, 8] {
                let chunked = sweep_plain(
                    &g,
                    &timing,
                    &partitions,
                    CandidatePolicy::Extended,
                    threads,
                    chunk_columns,
                );
                assert_eq!(serial, chunked, "chunk={chunk_columns} threads={threads}");
            }
        }
    }

    /// An attached recorder observes the sweep without perturbing it, and
    /// counts exactly the candidate pairs the naive oracle examines.
    #[test]
    fn recorder_observes_without_perturbing() {
        use rtlb_obs::Recorder;
        let (g, _) = fixture();
        let timing = compute_timing(&g, &SystemModel::shared());
        let partitions = partition_all(&g, &timing);
        let plain = sweep_plain(&g, &timing, &partitions, CandidatePolicy::EstLct, 1, 0);

        let recorder = Recorder::new();
        let probed = sweep(
            &g,
            &timing,
            &partitions,
            options(CandidatePolicy::EstLct, 1, 0),
            &recorder,
            &CancelToken::none(),
        )
        .unwrap();
        assert_eq!(plain, probed, "probing must be bit-identical");
        let metrics = recorder.take_metrics();
        let naive = naive_bounds(&g, &timing, &partitions, CandidatePolicy::EstLct).unwrap();
        let offered: u64 = naive.iter().map(|b| b.intervals_examined).sum();
        assert_eq!(metrics.counter("sweep.pairs_offered"), offered);
        assert_eq!(metrics.span_count("sweep.worker"), 1);
        assert!(metrics.span_count("sweep.chunk") >= 1);
        assert_eq!(
            metrics.counter("sweep.chunks"),
            metrics.span_count("sweep.chunk")
        );
        assert!(metrics.counter("sweep.events_processed") > 0);
        // Pruned pairs are part of the offered count, and the fixture's
        // blocks have columns that cannot win.
        assert!(metrics.counter("sweep.pairs_pruned") > 0);
        assert!(metrics.counter("sweep.pairs_pruned") < offered);
        // Coalescing can only shrink the merged stream.
        assert!(metrics.counter("sweep.chunk_events") <= metrics.counter("sweep.events_processed"));
    }

    /// With a parallel fan-out, the recorder sees one worker span per
    /// thread and the same final bounds.
    #[test]
    fn parallel_recorder_sees_worker_spans() {
        use rtlb_obs::Recorder;
        let (g, _) = fixture();
        let timing = compute_timing(&g, &SystemModel::shared());
        let partitions = partition_all(&g, &timing);
        let serial = sweep_plain(&g, &timing, &partitions, CandidatePolicy::Extended, 1, 0);
        let recorder = Recorder::new();
        let par = sweep(
            &g,
            &timing,
            &partitions,
            options(CandidatePolicy::Extended, 3, 0),
            &recorder,
            &CancelToken::none(),
        )
        .unwrap();
        assert_eq!(serial, par);
        let metrics = recorder.take_metrics();
        let workers = metrics.span_count("sweep.worker");
        assert!(
            (1..=3).contains(&workers),
            "worker spans = min(threads, jobs), got {workers}"
        );
        assert_eq!(
            metrics.counter("sweep.jobs"),
            metrics.span_count("sweep.chunk")
        );
    }

    /// A tripped token surfaces as `Deadline` from the very first column,
    /// serial and parallel alike — no partial bounds escape.
    #[test]
    fn tripped_token_stops_the_sweep() {
        let (g, _) = fixture();
        let timing = compute_timing(&g, &SystemModel::shared());
        let partitions = partition_all(&g, &timing);
        let ctl = CancelToken::new();
        ctl.cancel();
        for threads in [1, 3] {
            let err = sweep(
                &g,
                &timing,
                &partitions,
                options(CandidatePolicy::EstLct, threads, 0),
                &NULL_PROBE,
                &ctl,
            )
            .unwrap_err();
            assert_eq!(err, AnalysisError::Deadline);
        }
    }
}
