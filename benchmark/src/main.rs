//! The repository's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! dmps-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! dmps-benchmark --check            # every workload at 1/20 scale, verification only
//! dmps-benchmark --repeat-check     # two sets of runs per workload, gaps against the bounds
//! dmps-benchmark --manifest         # print BENCHMARK.json
//! ```

#![deny(warnings)]

mod driver;
mod host;
mod layers;
mod pacer;
mod probes;
mod repeat;
mod report;
mod spans;
mod specs;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use dmps_workload::generate;

use driver::{run_rep, RepOutcome};
use report::{result_line, Metrics, RUN_SECONDS};
use spans::{Recorder, NO_REQUEST};
use specs::{scaled_spec, workload, Workload, DEFAULT_SEED, WORKLOADS};
use stats::{better_decile, median, quartiles};

/// Measured repetitions a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Of the per-request call spans, every 64th request is written to the span
/// file (the summary lines carry the totals of all).
const SPAN_FILE_KEEP_EVERY: u64 = 64;

/// What one run measured.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

struct Inputs {
    spec: dmps_workload::WorkloadSpec,
    trace_crc: u32,
    problems: Vec<String>,
}

/// The seed of a run's `k`-th repetition. The first replays the trace of
/// `--seed` itself (the one the pins are for); the others draw their own, so
/// a run's metrics are taken over some forty traces and do not hang on where
/// one trace's checkpoints and bursts happen to fall.
fn rep_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Generates the trace of `--seed` once and pins it: for the default seed at
/// full scale, groups, streamed ops and the wire CRC must equal the
/// constants in `specs`.
fn inputs(w: &Workload, seed: u64, divisor: u32) -> Inputs {
    let spec = scaled_spec(w, seed, divisor);
    let trace = generate(&spec);
    let mut problems = Vec::new();
    let crc = dmps_wire::crc32(trace.encode_wire().as_bytes());
    println!(
        "info {} seed {seed} groups {} streamed_ops {} ops {} trace_crc {crc}",
        w.name,
        trace.groups.len(),
        trace.streamed_ops(),
        trace.ops.len()
    );
    if seed == DEFAULT_SEED && divisor == 1 {
        let got = specs::Pinned {
            groups: trace.groups.len(),
            streamed_ops: trace.streamed_ops(),
            trace_crc: crc,
        };
        if got != w.pinned {
            problems.push(format!(
                "inputs moved: {got:?}, pinned {:?} — crates/workload changed what is measured",
                w.pinned
            ));
        }
    }
    Inputs {
        spec,
        trace_crc: crc,
        problems,
    }
}

/// What verification found over a run's repetitions.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, rep: &RepOutcome) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.failures.extend(rep.failures.iter().cloned());
    }

    fn result(self, problems: &[String], metrics: Metrics) -> RunResult {
        for failure in problems.iter().chain(&self.failures) {
            println!("FAILED {failure}");
        }
        let failed = self.failed + problems.len() as u64;
        RunResult {
            correct: failed == 0,
            attempted: self.attempted,
            failed,
            metrics,
        }
    }
}

/// The warm-up repetition runs the workload at a quarter of its groups: it
/// warms code and allocator, its numbers are discarded, its failures count.
const WARM_UP_DIVISOR: u32 = 4;

fn warm_up(w: &Workload, seed: u64, divisor: u32) -> (RepOutcome, Vec<String>) {
    let inp = inputs(w, seed, divisor * WARM_UP_DIVISOR);
    let outcome = run_rep(w, &inp.spec, Recorder::new(false));
    (outcome, inp.problems)
}

/// Warm-up + measured repetitions for `seconds`; end-to-end metrics.
///
/// Repetitions run the same kind of work on a fresh cluster, and what the
/// host adds to one it only ever adds. Every metric is taken per repetition
/// and the run reports the better decile of those values (`setup_s` and
/// `state_bytes_per_group`: their median) — see "Aggregation" in the README.
fn run_untraced(w: &Workload, seed: u64, seconds: f64, divisor: u32) -> RunResult {
    let start = Instant::now();
    let (warm, mut problems) = warm_up(w, seed, divisor);
    let inp = inputs(w, seed, divisor);
    problems.extend(inp.problems);
    let mut tally = Tally::default();
    tally.add(&warm);
    drop(warm);
    // Only the per-repetition values are kept: a run makes dozens of
    // repetitions and `rss_peak_mib` is the program's memory, not a pile of
    // latency samples.
    let mut values: Vec<[f64; 8]> = Vec::new();
    let last = loop {
        let t0 = Instant::now();
        let spec = scaled_spec(w, rep_seed(seed, values.len()), divisor);
        let rep = run_rep(w, &spec, Recorder::new(false));
        values.push(rep.end_to_end());
        tally.add(&rep);
        let rep_s = t0.elapsed().as_secs_f64();
        if values.len() >= MIN_REPS && start.elapsed().as_secs_f64() + rep_s > seconds {
            break rep;
        }
    };

    let mut m = Metrics::default();
    for (i, e2e) in report::END_TO_END.iter().enumerate() {
        if e2e.name == "rss_peak_mib" {
            m.put(e2e.name, host::rss_peak_mib(), e2e.unit);
            continue;
        }
        let values: Vec<f64> = values.iter().map(|rep| rep[i]).collect();
        let (q1, q3) = quartiles(&values);
        println!(
            "info per_rep {} min {:.5} q1 {q1:.5} median {:.5} q3 {q3:.5} max {:.5}",
            e2e.name,
            values.iter().copied().fold(f64::INFINITY, f64::min),
            median(&values),
            values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        );
        // Set-up time is the median the driver's contract asks for, and
        // the state bytes are a count the host does not disturb.
        let value = match e2e.name {
            "setup_s" | "state_bytes_per_group" => median(&values),
            _ => better_decile(&values, e2e.better),
        };
        m.put(e2e.name, value, e2e.unit);
    }

    println!(
        "info repetitions {} (+1 warm-up) samples per repetition: latency {} \
         read_bursts {} recovery_rounds {} reads {} resubmits {} late_p99_ms {:.3} \
         state log/session/dedup/snapshot {}/{}/{}/{} B",
        values.len(),
        last.paced_latency.len(),
        last.read_ns.len(),
        last.recover_ns.len(),
        last.reads,
        last.resubmits,
        last.late.clone().percentile(0.99) as f64 / 1e6,
        last.state.log,
        last.state.session,
        last.state.dedup,
        last.state.snapshot,
    );
    tally.result(&problems, m)
}

fn span_file(w: &Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.spans.jsonl", w.name))
}

/// Warm-up, then pairs of (untraced, traced) repetitions for half of
/// `seconds`, then the probes and one unpinned repetition; per-layer metrics.
fn run_traced(w: &Workload, seed: u64, seconds: f64, divisor: u32, host: &host::Host) -> RunResult {
    let start = Instant::now();
    let (warm, mut problems) = warm_up(w, seed, divisor);
    let inp = inputs(w, seed, divisor);
    let mut rec = Recorder::new(true);
    let run_span = rec.enter("run", NO_REQUEST);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        // Both of a pair replay the same trace: their ratio is the tracing
        // overhead.
        let spec = scaled_spec(w, rep_seed(seed, traced.len()), divisor);
        untraced.push(run_rep(w, &spec, Recorder::new(false)));
        let mut outcome = run_rep(w, &spec, rec);
        rec = std::mem::replace(&mut outcome.recorder, Recorder::new(false));
        traced.push(outcome);
        if start.elapsed().as_secs_f64() > seconds / 2.0 {
            break;
        }
    }

    // The probes replay the trace of `--seed`, which the first pair ran.
    let first = traced.first().expect("one traced repetition");
    let trace = generate(&inp.spec);
    let probes = probes::run(&trace, &first.placement, &mut rec);
    drop(trace);

    // Diagnostic only: the churn workload once more with the pin lifted, to
    // show what the scheduler's placement does to the same code.
    let churn = workload("churn_sat").expect("churn_sat is a workload");
    let unpinned = host.cpu.is_some() && host::set_affinity(&host.allowed);
    let churn_inp = inputs(churn, seed, divisor);
    let span = rec.enter("rep.unpinned", NO_REQUEST);
    let loose = run_rep(churn, &churn_inp.spec, Recorder::new(false));
    rec.exit(span);
    if let (true, Some(cpu)) = (unpinned, host.cpu) {
        host::set_affinity(&[cpu]);
    }
    rec.exit(run_span);

    let metrics = layers::assemble(&layers::Traced {
        w,
        trace_crc: inp.trace_crc,
        untraced: &untraced,
        traced: &traced,
        recorder: &rec,
        probes: &probes,
        cpu: host.cpu,
        unpinned_ops_per_s: loose.ops_per_s(),
    });

    problems.extend(inp.problems);
    problems.extend(churn_inp.problems);
    if probes.errors > 0 {
        problems.push(format!("{} ops errored on the probe shards", probes.errors));
    }
    let path = span_file(w);
    match rec.write_jsonl(&path, SPAN_FILE_KEEP_EVERY) {
        Ok(written) => println!(
            "info spans recorded {} written {written} to {}",
            rec.spans().len(),
            path.display()
        ),
        Err(e) => problems.push(format!("could not write {}: {e}", path.display())),
    }
    println!(
        "info checkpoints on the probe shards: {} deltas, full ones at {:.0?} % of the stream",
        probes.delta_ns.len(),
        probes.base_at_pct
    );
    let ledger = |name: &str| metrics.get(name).unwrap_or(f64::NAN);
    let gap = ledger("ledger.layers_ns_per_op") + ledger("ledger.residual_ns_per_op")
        - ledger("ledger.e2e_ns_per_op");
    if gap.abs() > 1e-6 * ledger("ledger.e2e_ns_per_op").abs() {
        problems.push(format!("the ledger does not add up (off by {gap} ns/op)"));
    }
    for (name, (count, total, own)) in rec.totals() {
        println!("span {name} count {count} total_ns {total} self_ns {own}");
    }

    let mut tally = Tally::default();
    for rep in std::iter::once(&warm)
        .chain(&untraced)
        .chain(&traced)
        .chain(std::iter::once(&loose))
    {
        tally.add(rep);
    }
    tally.result(&problems, metrics)
}

/// `--check`: every workload at 1/20 scale, traced and untraced, all
/// verification on, no timing claims.
fn check(host: &host::Host) -> ExitCode {
    let start = Instant::now();
    let mut ok = true;
    for w in &WORKLOADS {
        for traced in [false, true] {
            let result = if traced {
                run_traced(w, DEFAULT_SEED, 0.0, 20, host)
            } else {
                run_untraced(w, DEFAULT_SEED, 0.0, 20)
            };
            println!(
                "check {} trace {} attempted {} failed {} -> {}",
                w.name,
                traced as u8,
                result.attempted,
                result.failed,
                if result.correct { "ok" } else { "FAILED" }
            );
            ok &= result.correct;
        }
    }
    let manifest = report::manifest(&layers::PER_LAYER);
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(on_disk) if on_disk != manifest => {
            println!("check BENCHMARK.json differs from `--manifest` -> FAILED");
            ok = false;
        }
        Ok(_) => println!("check BENCHMARK.json matches the tables -> ok"),
        Err(_) => println!("check BENCHMARK.json not in the working directory, skipped"),
    }
    println!("check finished in {:.1} s", start.elapsed().as_secs_f64());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dmps-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         dmps-benchmark --check | --repeat-check [--runs N] | --manifest",
        WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // Pin before anything is spawned: every thread inherits the mask.
    let host = host::pin_to_one_cpu();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let has = |flag: &str| args.iter().any(|a| a == flag);
    if has("--manifest") {
        print!("{}", report::manifest(&layers::PER_LAYER));
        return ExitCode::SUCCESS;
    }
    if has("--check") {
        return check(&host);
    }
    if has("--repeat-check") {
        let runs = value("--runs").and_then(|v| v.parse().ok()).unwrap_or(3);
        return repeat::repeat_check(runs);
    }
    let Some(w) = value("--workload").and_then(workload) else {
        return usage();
    };
    let seed = match value("--seed").map(str::parse::<u64>) {
        None => DEFAULT_SEED,
        Some(Ok(seed)) => seed,
        Some(Err(_)) => return usage(),
    };
    let seconds = match value("--seconds").map(str::parse::<f64>) {
        None => RUN_SECONDS as f64,
        Some(Ok(s)) if s > 0.0 => s,
        Some(_) => return usage(),
    };
    let traced = match value("--trace") {
        None | Some("0") => has("--traced"),
        Some("1") => true,
        Some(_) => return usage(),
    };

    println!(
        "info workload {} seed {seed} seconds {seconds} trace {} cpu {} of {:?}",
        w.name,
        traced as u8,
        host.cpu.map_or("unpinned".to_string(), |c| c.to_string()),
        host.allowed
    );
    let result = if traced {
        run_traced(w, seed, seconds, 1, &host)
    } else {
        run_untraced(w, seed, seconds, 1)
    };
    result.metrics.print();
    println!(
        "{}",
        result_line(
            result.correct,
            result.attempted,
            result.failed,
            &result.metrics
        )
    );
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
