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
//! * `start_fixed` / `end_fixed`: events at a constant position, alive
//!   while `t1 ≤ until` (entries die as `t1` grows);
//! * `start_shift` / `end_shift`: events at `s₀ ± t1`, alive on a `t1`
//!   band — sorted by shift key, their relative order is invariant under
//!   the common shift;
//! * `start_at_t1`: non-preemptive ramps whose onset *is* `t1`, coalesced
//!   into one leading `(t1, +count)` event (every other alive event sits
//!   at or beyond `t1`, so the merged list stays sorted);
//! * `end_band`: non-preemptive late-regime ends pinned at `E + C`.
//!
//! The accumulated `Θ` depends only on the *multiset* of slope events, so
//! the merged stream reproduces the sorted per-column list bit for bit.
//!
//! ## Chunked fan-out
//!
//! Columns are independent, so [`plan_block`] splits each block's `t1`
//! range into contiguous chunks ([`crate::exec::chunk_spans`]) and
//! [`sweep_blocks`] — the one sweep driver behind `analyze`, session
//! creation, and the session's dirty-block re-sweep — fans block×chunk
//! jobs across cores with `std::thread::scope`. Merging the per-chunk
//! maxima in deterministic ascending-`t1` chunk order with the first-wins
//! strict comparison of [`RatioMax::merge`] reproduces the serial result
//! exactly, whatever the thread count or chunk size.
//!
//! Results are **bit-identical** to the naive sweep (same demands, same
//! candidate pairs offered in the same order, same tie-breaks), which the
//! differential suite in `tests/sweep_equivalence.rs` enforces against
//! [`crate::oracle::naive_bounds`].

use std::ops::Range;

use rtlb_graph::{Dur, TaskGraph, TaskId, Time};
use rtlb_obs::{span, Label, Probe};

use crate::analysis::AnalysisOptions;
use crate::bounds::{candidate_points, CandidatePolicy, RatioMax};
use crate::cancel::CancelToken;
use crate::error::AnalysisError;
use crate::estlct::TimingAnalysis;
use crate::exec::{chunk_spans, effective_threads, run_jobs};
use crate::partition::{PartitionBlock, ResourcePartition};

/// A slope event at a constant position, alive while `t1 <= until`.
#[derive(Clone, Copy, Debug)]
struct ClampEvent {
    pos: i64,
    until: i64,
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

/// A slope event at a constant position, alive on a `t1` band.
#[derive(Clone, Copy, Debug)]
struct BandEvent {
    pos: i64,
    lo: i64,
    hi: i64,
}

/// Flat struct-of-arrays slope-event streams for one partition block,
/// built and sorted once, then merged allocation-free per `t1` column.
/// See the module docs for the regime decomposition; the differential
/// unit test `arena_streams_match_ramp_decomposition` pins each stream
/// against `psi_ramp` exhaustively.
struct BlockArena {
    /// `+1` at a fixed position (NP early/mid regime, P early regime).
    start_fixed: Vec<ClampEvent>,
    /// `+1` at `key + t1` (P mid regime).
    start_shift: Vec<StartShiftEvent>,
    /// `+1` at `t1` itself (NP late regime), coalesced per column.
    start_at_t1: Vec<Band>,
    /// `−1` at `L` (NP early regime, P early/mid regime).
    end_fixed: Vec<ClampEvent>,
    /// `−1` at `L + E − t1` (NP mid regime).
    end_shift: Vec<EndShiftEvent>,
    /// `−1` at `E + C` (NP late regime).
    end_band: Vec<BandEvent>,
}

impl BlockArena {
    /// Decomposes every task's ramp into its per-regime stream entries
    /// and sorts each stream once. Requires feasible windows — an
    /// infeasible task surfaces as [`AnalysisError::Infeasible`] here
    /// instead of a wrong answer or a debug assertion.
    fn build(
        graph: &TaskGraph,
        timing: &TimingAnalysis,
        tasks: &[TaskId],
    ) -> Result<BlockArena, AnalysisError> {
        let mut arena = BlockArena {
            start_fixed: Vec::with_capacity(tasks.len()),
            start_shift: Vec::new(),
            start_at_t1: Vec::new(),
            end_fixed: Vec::with_capacity(tasks.len()),
            end_shift: Vec::new(),
            end_band: Vec::new(),
        };
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
            if task.is_preemptive() {
                arena.start_fixed.push(ClampEvent {
                    pos: l - c,
                    until: e,
                });
                arena.end_fixed.push(ClampEvent {
                    pos: l,
                    until: e + c - 1,
                });
                if c >= 2 {
                    arena.start_shift.push(StartShiftEvent {
                        key: (l - c) - e,
                        lo: e + 1,
                        hi: e + c - 1,
                    });
                }
            } else {
                let mid_hi = (l - c).min(e + c - 1);
                arena.start_fixed.push(ClampEvent {
                    pos: l - c,
                    until: mid_hi,
                });
                arena.end_fixed.push(ClampEvent { pos: l, until: e });
                if e < mid_hi {
                    arena.end_shift.push(EndShiftEvent { l, e, hi: mid_hi });
                }
                if l - c < e + c - 1 {
                    arena.start_at_t1.push(Band {
                        lo: l - c + 1,
                        hi: e + c - 1,
                    });
                    arena.end_band.push(BandEvent {
                        pos: e + c,
                        lo: l - c + 1,
                        hi: e + c - 1,
                    });
                }
            }
        }
        arena.start_fixed.sort_unstable_by_key(|x| x.pos);
        arena.start_shift.sort_unstable_by_key(|x| x.key);
        arena.end_fixed.sort_unstable_by_key(|x| x.pos);
        arena
            .end_shift
            .sort_unstable_by_key(|x| i128::from(x.l) + i128::from(x.e));
        arena.end_band.sort_unstable_by_key(|x| x.pos);
        Ok(arena)
    }

    /// Merges the alive entries of every stream into `events`, sorted by
    /// position, with same-position deltas coalesced. Returns the number
    /// of *raw* ramp slope events represented (what the pre-arena sweep
    /// counted as `sweep.events_processed`), which can exceed
    /// `events.len()` because of coalescing.
    fn emit_column(&self, t1: i64, events: &mut Vec<(i64, i64)>) -> u64 {
        events.clear();
        let mut raw = 0u64;

        // NP late-regime starts sit exactly at t1 — the minimum possible
        // position (every alive event is at or beyond t1) — so the
        // coalesced (t1, +count) event leads the merged list.
        let at_t1 = self
            .start_at_t1
            .iter()
            .filter(|b| b.lo <= t1 && t1 <= b.hi)
            .count() as i64;
        if at_t1 > 0 {
            events.push((t1, at_t1));
            raw += at_t1 as u64;
        }

        let (mut sf, mut ss, mut ef, mut es, mut eb) = (0usize, 0, 0, 0, 0);
        loop {
            // Peek the next alive entry of each stream; dead entries are
            // skipped (cursors restart per column, so non-monotone alive
            // bands are handled by construction).
            let psf = Self::peek(&self.start_fixed, &mut sf, |x| {
                (t1 <= x.until).then_some(x.pos)
            });
            let pss = Self::peek(&self.start_shift, &mut ss, |x| {
                (x.lo <= t1 && t1 <= x.hi).then(|| x.key + t1)
            });
            let pef = Self::peek(&self.end_fixed, &mut ef, |x| {
                (t1 <= x.until).then_some(x.pos)
            });
            let pes = Self::peek(&self.end_shift, &mut es, |x| {
                (x.e < t1 && t1 <= x.hi).then(|| x.l - (t1 - x.e))
            });
            let peb = Self::peek(&self.end_band, &mut eb, |x| {
                (x.lo <= t1 && t1 <= x.hi).then_some(x.pos)
            });

            let mut best: Option<(i64, i64, u8)> = None;
            for (pos, delta, stream) in [
                (psf, 1, 0u8),
                (pss, 1, 1),
                (pef, -1, 2),
                (pes, -1, 3),
                (peb, -1, 4),
            ] {
                if let Some(pos) = pos {
                    if best.is_none_or(|(b, _, _)| pos < b) {
                        best = Some((pos, delta, stream));
                    }
                }
            }
            let Some((pos, delta, stream)) = best else {
                break;
            };
            match stream {
                0 => sf += 1,
                1 => ss += 1,
                2 => ef += 1,
                3 => es += 1,
                _ => eb += 1,
            }
            debug_assert!(pos >= t1, "alive events never precede t1");
            raw += 1;
            match events.last_mut() {
                Some(last) if last.0 == pos => last.1 += delta,
                _ => events.push((pos, delta)),
            }
        }
        debug_assert!(events.windows(2).all(|w| w[0].0 < w[1].0));
        raw
    }

    /// Advances `cursor` past dead entries and returns the next alive
    /// entry's position, without consuming it.
    fn peek<T: Copy>(
        stream: &[T],
        cursor: &mut usize,
        alive_pos: impl Fn(T) -> Option<i64>,
    ) -> Option<i64> {
        while let Some(&entry) = stream.get(*cursor) {
            if let Some(pos) = alive_pos(entry) {
                return Some(pos);
            }
            *cursor += 1;
        }
        None
    }
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

/// Walks the candidate `t2` points of one `t1` column once with a
/// running slope over the pre-merged `events`, offering every pair to
/// `max` — exactly the accumulation the sorted per-column event list
/// produced, because `Θ` depends only on the event multiset.
fn accumulate_column(points: &[Time], li: usize, events: &[(i64, i64)], max: &mut RatioMax) {
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
/// pre-arena `sweep.events_processed` accounting) and merged event
/// entries actually walked (`sweep.chunk_events` — smaller whenever
/// coalescing collapses same-position deltas).
#[derive(Clone, Copy, Debug, Default)]
struct ChunkCounters {
    raw_events: u64,
    merged_events: u64,
}

/// One block's sweep, planned: candidate points, the SoA event arena,
/// and the ascending-`t1` chunk spans. Chunks are independent units of
/// work whose maxima merge back in span order.
struct BlockPlan {
    points: Vec<Time>,
    arena: BlockArena,
    chunks: Vec<Range<usize>>,
    /// Upper bound on one column's merged event count (two per task plus
    /// the coalesced `t1` event), the per-chunk buffer size.
    max_events: usize,
}

/// Plans one block's chunked sweep: builds the block's event arena,
/// computes the candidate grid, and splits the `t1` range off the worker
/// pool (`chunk_columns` forces a size, `0` auto-sizes; see
/// [`chunk_spans`]).
///
/// # Errors
///
/// [`AnalysisError::Infeasible`] if a swept task's window cannot contain
/// its computation.
fn plan_block(
    graph: &TaskGraph,
    timing: &TimingAnalysis,
    tasks: &[TaskId],
    policy: CandidatePolicy,
    threads: usize,
    chunk_columns: usize,
) -> Result<BlockPlan, AnalysisError> {
    let arena = BlockArena::build(graph, timing, tasks)?;
    let points = candidate_points(graph, timing, tasks, policy);
    let t1_count = points.len().saturating_sub(1);
    Ok(BlockPlan {
        chunks: chunk_spans(t1_count, threads, chunk_columns),
        points,
        arena,
        max_events: tasks.len() * 2 + 1,
    })
}

impl BlockPlan {
    /// Sweeps chunk `ci` into `max`, polling `ctl` once per `t1` column
    /// (the interruption checkpoint — a column is the unit of work
    /// between checks, so cancellation latency is one column, not one
    /// whole chunk). The event buffer is allocated once per chunk and
    /// reused across its columns; the merge itself never allocates.
    fn sweep_chunk(
        &self,
        ci: usize,
        max: &mut RatioMax,
        ctl: &CancelToken,
    ) -> Result<ChunkCounters, AnalysisError> {
        let mut counters = ChunkCounters::default();
        let mut events: Vec<(i64, i64)> = Vec::with_capacity(self.max_events);
        for li in self.chunks[ci].clone() {
            ctl.check()?;
            counters.raw_events += self.arena.emit_column(self.points[li].ticks(), &mut events);
            counters.merged_events += events.len() as u64;
            accumulate_column(&self.points, li, &events, max);
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
/// Every block is planned first, in input order, so a planning error
/// surfaces in the order a serial sweep would hit it. Blocks are then
/// split into contiguous `t1` chunks for load balance, one job per chunk,
/// and chunk maxima fold back per block in ascending-`t1` order with the
/// serial first-wins tie-break — bit-identical for any thread count and
/// chunk size. On error (the first in job order wins) all partial maxima
/// are discarded; workers that observe a tripped `ctl` stop at their
/// next column boundary.
///
/// Reports the `sweep.blocks` / `sweep.jobs` / `sweep.chunks` counters,
/// a `sweep.worker` span per worker thread, a `sweep.chunk` span per
/// job, and per chunk the `sweep.pairs_offered` /
/// `sweep.events_processed` / `sweep.chunk_events` counters and the
/// `sweep.events_per_chunk` distribution. Instrumentation is
/// observational only.
///
/// # Errors
///
/// [`AnalysisError::Infeasible`] as in [`plan_block`], or
/// [`AnalysisError::Deadline`] when `ctl` trips.
pub(crate) fn sweep_blocks(
    graph: &TaskGraph,
    timing: &TimingAnalysis,
    blocks: &[(usize, &PartitionBlock)],
    options: &AnalysisOptions,
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<Vec<RatioMax>, AnalysisError> {
    let threads = effective_threads(options.parallelism);
    let plans = blocks
        .iter()
        .map(|(_, block)| {
            plan_block(
                graph,
                timing,
                &block.tasks,
                options.candidates,
                threads,
                options.chunk_columns,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;

    // One job per contiguous t1 chunk, in (block, chunk) order.
    let jobs: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(bi, plan)| (0..plan.chunks.len()).map(move |ci| (bi, ci)))
        .collect();

    probe.add("sweep.blocks", plans.len() as u64);
    probe.add("sweep.jobs", jobs.len() as u64);
    probe.add("sweep.chunks", jobs.len() as u64);

    let chunk_maxima = run_jobs(probe, threads, jobs.len(), |j| {
        let (bi, ci) = jobs[j];
        let _chunk = span(probe, "sweep.chunk", Label::Index(blocks[bi].0 as u64));
        let mut max = RatioMax::default();
        let counters = plans[bi].sweep_chunk(ci, &mut max, ctl)?;
        probe.add("sweep.pairs_offered", max.intervals());
        probe.add("sweep.events_processed", counters.raw_events);
        probe.add("sweep.chunk_events", counters.merged_events);
        probe.observe("sweep.events_per_chunk", counters.merged_events);
        Ok(max)
    });

    let mut folded = vec![RatioMax::default(); plans.len()];
    for ((bi, _), max) in jobs.iter().zip(chunk_maxima) {
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
    let blocks: Vec<(usize, &PartitionBlock)> = partitions
        .iter()
        .enumerate()
        .flat_map(|(pi, p)| p.blocks.iter().map(move |b| (pi, b)))
        .collect();
    let mut maxima = sweep_blocks(graph, timing, &blocks, options, probe, ctl)?.into_iter();
    Ok(partitions
        .iter()
        .map(|p| maxima.by_ref().take(p.blocks.len()).collect())
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
