//! Allocation ceilings for the layers a request crosses: decoding the
//! `rtlb-rpc-v1` line, parsing the instance text, keying it for the
//! result cache, analyzing it, applying a session edit and encoding the
//! response. Counts at a fixed input do not jitter the way
//! wall-clock time does, so a change that brings back per-character,
//! per-line or per-block allocation fails here on any host.
//!
//! The counting allocator keeps its counters per thread, so tests that
//! run in parallel in this binary do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtlb::obs::Json;
use rtlb::serve::{parse_request, Op};

/// Forwards to the system allocator, counting on the calling thread
/// every allocation (`alloc`, `alloc_zeroed` and `realloc` each count as
/// one) and the bytes each one asks for (for `realloc`, the new size).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: a thread being torn down has no counters left, and an
    // allocator must not panic.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// const-initialized thread-local cells, which neither allocate nor
// register a destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations and bytes it
/// made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocs, bytes) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let value = f();
    (
        value,
        ALLOCS.with(Cell::get) - allocs,
        BYTES.with(Cell::get) - bytes,
    )
}

/// The text of the 400-task instance the one-shot benchmark sends.
fn instance_text() -> String {
    let graph = rtlb::workloads::framed_tasks(100, 4, 42);
    rtlb::format::render(&graph, None, None)
}

#[test]
fn instance_parse_stays_under_its_allocation_ceiling() {
    let text = instance_text();
    let (parsed, allocs, _) = counted(|| rtlb::format::parse(&text));
    let parsed = parsed.expect("the instance parses");
    assert_eq!(parsed.graph.task_count(), 400);
    eprintln!("instance::parse: {allocs} allocations");
    assert!(
        allocs <= 1_400,
        "instance::parse made {allocs} allocations on 400 tasks (ceiling 1,400)"
    );
}

#[test]
fn request_decode_stays_under_its_allocation_ceiling() {
    let text = instance_text();
    let line = Json::obj([
        ("proto", Json::str(rtlb::serve::RPC_SCHEMA)),
        ("id", Json::str("a0")),
        ("op", Json::str("analyze")),
        ("instance", Json::str(text.as_str())),
    ])
    .render();
    let (request, allocs, bytes) = counted(|| parse_request(&line));
    let request = request.expect("the line decodes");
    eprintln!(
        "parse_request: {allocs} allocations, {bytes} bytes on a {}-byte line",
        line.len()
    );
    assert!(
        matches!(&request.op, Op::Analyze { instance, .. } if *instance == text),
        "the instance text survives decoding"
    );
    assert!(
        allocs <= 40,
        "parse_request made {allocs} allocations on a {}-byte line (ceiling 40)",
        line.len()
    );
    let ceiling = 3 * line.len() as u64;
    assert!(
        bytes <= ceiling,
        "parse_request allocated {bytes} bytes on a {}-byte line (ceiling {ceiling})",
        line.len()
    );
}

/// The cache key of the one-shot instance: its canonical text, hashed
/// with the default options' fingerprint (17 allocations and 79,960
/// bytes written into the one hashed buffer; 768 and 101,989 with one
/// `String` per canonical line).
#[test]
fn content_key_stays_under_its_allocation_ceiling() {
    let parsed = rtlb::format::parse(&instance_text()).expect("the instance parses");
    let fingerprint = rtlb::core::AnalysisOptions::default().semantic_fingerprint();
    let (_, allocs, bytes) = counted(|| rtlb::format::content_key(&parsed, &fingerprint));
    eprintln!("content_key: {allocs} allocations, {bytes} bytes on 400 tasks");
    assert!(
        allocs <= 25,
        "content_key made {allocs} allocations on 400 tasks (ceiling 25)"
    );
    assert!(
        bytes <= 100_000,
        "content_key allocated {bytes} bytes on 400 tasks (ceiling 100,000)"
    );
}

/// One `run_batch` miss at one worker, with no cache and no heartbeat,
/// over a directory that holds only the one-shot instance: all of it
/// runs on this thread. The driver reads, parses and keys the file once
/// and analyzes that parse (1,085 allocations; 2,839 when it read and
/// parsed the file a second time to analyze it).
#[test]
fn batch_miss_stays_under_its_allocation_ceiling() {
    let dir = std::env::temp_dir().join(format!("rtlb-allocs-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("framed.rtlb"), instance_text()).unwrap();
    let options = rtlb::batch::BatchOptions {
        jobs: 1,
        ..rtlb::batch::BatchOptions::default()
    };
    let (report, allocs, _) = counted(|| rtlb::batch::run_batch(&dir, &options));
    std::fs::remove_dir_all(&dir).ok();
    let report = report.expect("the batch runs");
    assert_eq!(report.instances[0].kind, rtlb::batch::OutcomeKind::Ok);
    eprintln!("run_batch miss: {allocs} allocations on 400 tasks");
    assert!(
        allocs <= 1_500,
        "run_batch made {allocs} allocations on one 400-task miss (ceiling 1,500)"
    );
}

/// The `analyze` response for the one-shot instance's bounds, rendered
/// to its wire line (49 allocations).
#[test]
fn response_encode_stays_under_its_allocation_ceiling() {
    use rtlb::serve::proto::{bounds_body, ok_response};

    let graph = rtlb::workloads::framed_tasks(100, 4, 42);
    let analysis = rtlb::core::analyze(&graph, &rtlb::core::SystemModel::shared())
        .expect("the instance analyzes");
    let id = Some("a0".to_owned());
    let (line, allocs, _) =
        counted(|| ok_response(&id, "analyze", bounds_body(&graph, analysis.bounds())).render());
    eprintln!(
        "response encode: {allocs} allocations for a {}-byte line",
        line.len()
    );
    assert!(
        allocs <= 65,
        "encoding the analyze response made {allocs} allocations (ceiling 65)"
    );
}

/// The whole pipeline at default options on the one-shot benchmark's
/// instance: 187 Figure 4 blocks, so anything allocated per block or per
/// sweep chunk breaks the ceiling.
#[test]
fn analysis_stays_under_its_allocation_ceiling() {
    let graph = rtlb::workloads::framed_tasks(100, 4, 42);
    let options = rtlb::core::AnalysisOptions::default();
    let model = rtlb::core::SystemModel::shared();
    let (analysis, allocs, _) = counted(|| rtlb::core::analyze_with(&graph, &model, options));
    let analysis = analysis.expect("the instance analyzes");
    let blocks: usize = analysis.partitions().iter().map(|p| p.block_count()).sum();
    eprintln!("analyze_with: {allocs} allocations on 400 tasks in {blocks} blocks");
    assert!(
        allocs <= 100,
        "analyze_with made {allocs} allocations on 400 tasks in {blocks} blocks (ceiling 100)"
    );
}

/// A single-task computation edit and its undo, each applied to a live
/// session on the delta benchmark's first graph (`layered` 20×20 at seed
/// 1000): the incremental path of one interactive `delta` request. Both
/// re-sweep the edited task's block, so the count covers the timing
/// waves, the re-partition and the dirty-block re-sweep (79 each when a
/// merge-scan evaluation allocates nothing; 114 with a member list per
/// evaluation, 189 before the scan buffers were reused).
#[test]
fn session_apply_stays_under_its_allocation_ceiling() {
    use rtlb::core::{AnalysisOptions, AnalysisSession, Delta, SystemModel};
    use rtlb::graph::Dur;

    let config = rtlb::workloads::LayeredConfig {
        layers: 20,
        width: 20,
        ..rtlb::workloads::LayeredConfig::default()
    };
    let graph = rtlb::workloads::layered(&config, 1000);
    let task = (0..20)
        .map(|w| graph.task_id(&format!("L10T{w}")).expect("layered names"))
        .find(|&t| graph.task(t).computation().ticks() >= 2)
        .expect("a mid-depth task can shrink");
    let c = graph.task(task).computation().ticks();
    let mut session =
        AnalysisSession::new(graph, SystemModel::shared(), AnalysisOptions::default())
            .expect("the graph analyzes");
    for (step, c) in [("do", c - 1), ("undo", c)] {
        let edit = Delta::SetComputation {
            task,
            computation: Dur::new(c),
        };
        let (stats, allocs, _) = counted(|| session.apply(&[edit]));
        let stats = stats.expect("the edit applies");
        eprintln!(
            "session apply ({step}): {allocs} allocations, {} tasks recomputed, {} blocks re-swept",
            stats.tasks_recomputed(),
            stats.blocks_resweeped
        );
        assert!(
            stats.blocks_resweeped >= 1,
            "the {step} edit re-sweeps a block"
        );
        assert!(
            allocs <= 100,
            "session apply ({step}) made {allocs} allocations (ceiling 100)"
        );
    }
}
