//! The repository benchmark: one command per workload and seed.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-repull --seed 0 --seconds 10 --trace 0
//! ```
//!
//! Prints readable lines, then one JSON result line. With `--trace 0`
//! the result carries the end-to-end metrics; with `--trace 1` the
//! per-layer metrics of a separate traced run. Exits 1 when an output
//! check fails and 2 on a usage or set-up error. See `perfbench/NOTES.md`.

mod alloc;
mod checks;
mod daemon;
mod report;
mod serve;
mod trace;

use report::Outcome;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// End-to-end metrics, printed on every workload with `--trace 0`.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "evals_per_s",
    "tick_p50_us",
    "tick_p99_us",
    "energy_per_eval",
    "ok_share",
    "peak_rss_mb",
];

/// Per-layer metrics shared by every workload (those only some
/// workloads measure are listed next to the workload code).
const SHARED_PER_LAYER: [&str; 10] = [
    "arrange.maintained_items_per_tick",
    "multi.joint_plan_ms",
    "core.plan_cache_hit_ratio",
    "core.plan_miss_us",
    "core.plan_hit_us",
    "faults.retries_per_eval",
    "faults.retry_energy_share",
    "faults.unknown_share",
    "trace.overhead_share",
    "trace.alloc_counter_share",
];

const WORKLOADS: [&str; 3] = ["serve-repull", "serve-arranged", "daemon-churn"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The metric names a result must carry, in print order.
fn expected_metrics(trace: bool) -> Vec<&'static str> {
    if !trace {
        return END_TO_END.to_vec();
    }
    let mut names: Vec<&str> = serve::ONLY_METRICS
        .iter()
        .chain(&daemon::ONLY_METRICS)
        .map(|(n, _)| *n)
        .chain(SHARED_PER_LAYER)
        .collect();
    names.sort_unstable();
    names
}

/// Orders the metrics canonically; an error names any missing or extra
/// metric (a defect of this benchmark, not of the program).
fn canonical(o: &mut Outcome, trace: bool) -> Result<(), String> {
    let want = expected_metrics(trace);
    let mut got: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
    got.sort_unstable();
    let mut sorted_want = want.clone();
    sorted_want.sort_unstable();
    if got != sorted_want {
        return Err(format!(
            "metric set mismatch: got {got:?}, want {sorted_want:?}"
        ));
    }
    o.metrics
        .sort_by_key(|m| want.iter().position(|n| *n == m.name));
    Ok(())
}

fn main() {
    // One planner worker thread. On a small shared host the planner's
    // worker pool (`ThreadCount::Auto`) made `daemon-churn` both slower
    // and several times noisier (see NOTES.md), too noisy to judge a
    // change by; planning results are the same at any thread count. Set
    // before any thread exists, so nothing reads the environment
    // concurrently.
    std::env::set_var("PAOTR_THREADS", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "serve-repull" => serve::run(false, args.seed, args.seconds, args.trace),
        "serve-arranged" => serve::run(true, args.seed, args.seconds, args.trace),
        _ => daemon::run(args.seed, args.seconds, args.trace),
    }
    .and_then(|mut o| canonical(&mut o, args.trace).map(|()| o));
    let o = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in o.notes.iter().chain(&o.metric_lines()) {
        println!("{line}");
    }
    for f in &o.failures {
        println!("CHECK FAILED: {f}");
    }
    println!("{}", o.result_line());
    if !o.failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_have_no_duplicates() {
        for trace in [false, true] {
            let mut names = expected_metrics(trace);
            let n = names.len();
            names.dedup();
            assert_eq!(names.len(), n);
        }
        assert_eq!(expected_metrics(true).len(), 33);
    }
}
