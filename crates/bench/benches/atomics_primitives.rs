//! E9 — the real-atomics substrate (Herlihy-hierarchy primitives).
//!
//! Microbenchmarks of the wait-free snapshot (consensus number 1
//! machinery), test&set (2), and CAS consensus (∞) under no contention and
//! under real-thread contention, plus the **writer-storm harness**: fixed
//! measurement windows with 1/2/4/8 writer threads hammering their own
//! cells against concurrent scanners, reporting aggregate scan/update
//! throughput (ops/s) and sampled per-operation latency percentiles.
//! Expected shape: uncontended snapshot `update` costs one embedded `scan`
//! (linear in `n`); `scan` under write contention stays bounded
//! (wait-freedom: ≤ n+2 collects, usually borrowing an embedded view
//! early); TAS and CAS are single-instruction flat.
//!
//! The `atomics storm …` stderr lines are wall-clock rates, so no golden
//! file pins them. After all benchmark bodies finish, `main` runs the
//! epoch leak gate: every record retired through `crossbeam::epoch`
//! during the run must have been reclaimed by a final quiescent drain.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use mpcn_bench::assert_epoch_drained;
use mpcn_runtime::atomics::{CasConsensus, DoubleCollectSnapshot, TestAndSet, WaitFreeSnapshot};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `--quick` / `--test` (the CI smoke): shrink the storm windows so every
/// configuration still executes once without dominating the job.
fn quick() -> bool {
    std::env::args().any(|a| a == "--test" || a == "--quick")
}

/// Sample one operation latency out of every `LATENCY_SAMPLE` operations —
/// cheap enough not to distort throughput, dense enough for percentiles.
const LATENCY_SAMPLE: u64 = 32;

/// Scanner threads run against every writer-storm configuration.
const STORM_SCANNERS: usize = 2;

/// Aggregate result of one writer-storm window.
struct StormStats {
    scan_ops: u64,
    update_ops: u64,
    elapsed: Duration,
    /// Sampled per-operation latencies, nanoseconds, ascending.
    scan_lat_ns: Vec<u64>,
    update_lat_ns: Vec<u64>,
}

impl StormStats {
    fn scan_rate(&self) -> f64 {
        self.scan_ops as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    fn update_rate(&self) -> f64 {
        self.update_ops as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Nearest-rank percentile of ascending-sorted samples (0 if empty — a
/// storm window short enough to miss every sample point).
fn percentile(sorted: &[u64], q: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as u64).div_ceil(100).max(1);
    sorted[(rank - 1) as usize]
}

/// One storm window: `writers` threads each hammer their own cell of an
/// `n = writers + 1`-cell snapshot while [`STORM_SCANNERS`] threads scan,
/// for `window` of wall clock. Single-writer-per-cell discipline holds:
/// writer `i` owns cell `i + 1`; cell 0 stays at its initial value.
fn writer_storm(writers: usize, window: Duration) -> StormStats {
    let n = writers + 1;
    let snap = Arc::new(WaitFreeSnapshot::new(n));
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let (scan_parts, update_parts): (Vec<_>, Vec<_>) = std::thread::scope(|sc| {
        let update_handles: Vec<_> = (0..writers)
            .map(|i| {
                let snap = Arc::clone(&snap);
                let stop = Arc::clone(&stop);
                sc.spawn(move || {
                    let mut ops = 0u64;
                    let mut lat = Vec::new();
                    let mut k = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        k += 1;
                        if k % LATENCY_SAMPLE == 0 {
                            let t0 = Instant::now();
                            snap.update(i + 1, k);
                            lat.push(t0.elapsed().as_nanos() as u64);
                        } else {
                            snap.update(i + 1, k);
                        }
                        ops += 1;
                    }
                    (ops, lat)
                })
            })
            .collect();
        let scan_handles: Vec<_> = (0..STORM_SCANNERS)
            .map(|_| {
                let snap = Arc::clone(&snap);
                let stop = Arc::clone(&stop);
                sc.spawn(move || {
                    let mut ops = 0u64;
                    let mut lat = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        ops += 1;
                        if ops % LATENCY_SAMPLE == 0 {
                            let t0 = Instant::now();
                            black_box(snap.scan());
                            lat.push(t0.elapsed().as_nanos() as u64);
                        } else {
                            black_box(snap.scan());
                        }
                    }
                    (ops, lat)
                })
            })
            .collect();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        let updates: Vec<_> =
            update_handles.into_iter().map(|h| h.join().expect("writer")).collect();
        let scans: Vec<_> = scan_handles.into_iter().map(|h| h.join().expect("scanner")).collect();
        (scans, updates)
    });
    let elapsed = start.elapsed();
    let mut scan_lat_ns: Vec<u64> =
        scan_parts.iter().flat_map(|(_, l)| l.iter().copied()).collect();
    let mut update_lat_ns: Vec<u64> =
        update_parts.iter().flat_map(|(_, l)| l.iter().copied()).collect();
    scan_lat_ns.sort_unstable();
    update_lat_ns.sort_unstable();
    StormStats {
        scan_ops: scan_parts.iter().map(|(o, _)| o).sum(),
        update_ops: update_parts.iter().map(|(o, _)| o).sum(),
        elapsed,
        scan_lat_ns,
        update_lat_ns,
    }
}

/// Runs the storm matrix, printing one stderr line per writer count.
fn storm_matrix() {
    let window = if quick() { Duration::from_millis(30) } else { Duration::from_millis(300) };
    for writers in [1usize, 2, 4, 8] {
        let s = writer_storm(writers, window);
        let (sp50, sp99) = (percentile(&s.scan_lat_ns, 50), percentile(&s.scan_lat_ns, 99));
        let (up50, up99) = (percentile(&s.update_lat_ns, 50), percentile(&s.update_lat_ns, 99));
        eprintln!(
            "atomics storm writers={writers} scanners={STORM_SCANNERS} n={}: scan {:.0} ops/s \
             p50 {sp50} ns p99 {sp99} ns | update {:.0} ops/s p50 {up50} ns p99 {up99} ns",
            writers + 1,
            s.scan_rate(),
            s.update_rate(),
        );
    }
}

fn snapshot_uncontended(c: &mut Criterion) {
    let mut g = c.benchmark_group("atomics/snapshot_uncontended");
    for n in [2usize, 4, 8, 16, 32] {
        // One scan (or update, which embeds a scan) touches all n cells.
        g.throughput(Throughput::Elements(n as u64));
        let snap = WaitFreeSnapshot::new(n);
        g.bench_with_input(BenchmarkId::new("scan", n), &n, |b, _| {
            b.iter(|| black_box(snap.scan()))
        });
        g.bench_with_input(BenchmarkId::new("update", n), &n, |b, _| {
            let mut k = 0u64;
            b.iter(|| {
                k += 1;
                snap.update(0, black_box(k))
            })
        });
    }
    g.finish();
}

fn snapshot_contended_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("atomics/snapshot_scan_under_writers");
    g.sample_size(20);
    // One iteration = one whole scan: the thrpt segment is scans/s.
    g.throughput(Throughput::Elements(1));
    for writers in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(writers), &writers, |b, &writers| {
            let n = writers + 1;
            let snap = Arc::new(WaitFreeSnapshot::new(n));
            let stop = Arc::new(AtomicBool::new(false));
            let handles: Vec<_> = (0..writers)
                .map(|i| {
                    let snap = Arc::clone(&snap);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut k = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            k += 1;
                            snap.update(i + 1, k);
                        }
                    })
                })
                .collect();
            b.iter(|| black_box(snap.scan()));
            stop.store(true, Ordering::Relaxed);
            for h in handles {
                h.join().expect("writer thread");
            }
        });
    }
    g.finish();
}

fn snapshot_contended_update(c: &mut Criterion) {
    let mut g = c.benchmark_group("atomics/snapshot_update_under_writers");
    g.sample_size(20);
    // One iteration = one update (with its embedded scan): updates/s.
    g.throughput(Throughput::Elements(1));
    for writers in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(writers), &writers, |b, &writers| {
            // The measured thread owns cell 0; storm writer i owns i + 1.
            let n = writers + 1;
            let snap = Arc::new(WaitFreeSnapshot::new(n));
            let stop = Arc::new(AtomicBool::new(false));
            let handles: Vec<_> = (0..writers)
                .map(|i| {
                    let snap = Arc::clone(&snap);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut k = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            k += 1;
                            snap.update(i + 1, k);
                        }
                    })
                })
                .collect();
            let mut k = 0u64;
            b.iter(|| {
                k += 1;
                snap.update(0, black_box(k))
            });
            stop.store(true, Ordering::Relaxed);
            for h in handles {
                h.join().expect("writer thread");
            }
        });
    }
    g.finish();
}

fn double_collect_contended(c: &mut Criterion) {
    // The obstruction-free ablation baseline under the same storm shape:
    // try_scan may fail (returns None) — the bench measures attempt cost.
    let mut g = c.benchmark_group("atomics/double_collect_try_scan_under_writers");
    g.sample_size(20);
    g.throughput(Throughput::Elements(1));
    for writers in [1usize, 4] {
        g.bench_with_input(BenchmarkId::from_parameter(writers), &writers, |b, &writers| {
            let n = writers + 1;
            let snap = Arc::new(DoubleCollectSnapshot::new(n));
            let stop = Arc::new(AtomicBool::new(false));
            let handles: Vec<_> = (0..writers)
                .map(|i| {
                    let snap = Arc::clone(&snap);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut k = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            k += 1;
                            snap.update(i + 1, k);
                        }
                    })
                })
                .collect();
            b.iter(|| black_box(snap.try_scan(n + 2)));
            stop.store(true, Ordering::Relaxed);
            for h in handles {
                h.join().expect("writer thread");
            }
        });
    }
    g.finish();
}

fn tas_and_cas(c: &mut Criterion) {
    let mut g = c.benchmark_group("atomics/tas_and_cas");
    g.bench_function("test_and_set_fresh", |b| {
        b.iter_with_setup(TestAndSet::new, |t| black_box(t.test_and_set()))
    });
    g.bench_function("test_and_set_taken", |b| {
        let t = TestAndSet::new();
        t.test_and_set();
        b.iter(|| black_box(t.test_and_set()))
    });
    g.bench_function("cas_consensus_fresh", |b| {
        b.iter_with_setup(CasConsensus::new, |c| black_box(c.propose(7)))
    });
    g.bench_function("cas_consensus_decided", |b| {
        let c0 = CasConsensus::new();
        c0.propose(1);
        b.iter(|| black_box(c0.propose(2)))
    });
    g.finish();
}

criterion_group!(
    benches,
    snapshot_uncontended,
    snapshot_contended_scan,
    snapshot_contended_update,
    double_collect_contended,
    tas_and_cas
);

fn main() {
    storm_matrix();
    benches();
    assert_epoch_drained();
}
