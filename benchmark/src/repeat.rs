//! `--repeat-check`: the acceptance rule, run by hand. Two sets of runs of
//! the same build per workload, each run a fresh process with its own seed;
//! per metric the two set medians, their gap and the spread (interquartile
//! distance ÷ median) inside each set, against the metric's bound.

use std::process::{Command, ExitCode};

use crate::report::{Better, END_TO_END, RUN_SECONDS};
use crate::specs::{DEFAULT_SEED, WORKLOADS};
use crate::stats::{median, spread};

/// One child run's end-to-end values, in `END_TO_END` order.
fn run_once(workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload} seed {seed} failed:\n{stdout}"));
    }
    END_TO_END
        .iter()
        .map(|m| {
            stdout
                .lines()
                .filter_map(|l| l.strip_prefix("metric "))
                .filter_map(|l| {
                    l.strip_prefix(m.name)?
                        .strip_prefix(' ')?
                        .split_whitespace()
                        .next()?
                        .parse()
                        .ok()
                })
                .next()
                .ok_or_else(|| format!("{workload} seed {seed}: no value for {}", m.name))
        })
        .collect()
}

pub fn repeat_check(runs: usize) -> ExitCode {
    let runs = runs.max(3);
    let mut ok = true;
    for w in &WORKLOADS {
        // sets[set][metric] = values over the set's runs
        let mut sets = vec![vec![Vec::new(); END_TO_END.len()]; 2];
        for set in &mut sets {
            for run in 0..runs {
                match run_once(w.name, DEFAULT_SEED + run as u64) {
                    Ok(values) => {
                        for (slot, v) in set.iter_mut().zip(values) {
                            slot.push(v);
                        }
                    }
                    Err(e) => {
                        println!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (median(&sets[0][i]), median(&sets[1][i]));
            // How much worse the second set's median is than the first's.
            let worse = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let spreads = (spread(&sets[0][i]), spread(&sets[1][i]));
            let gated_spread = m.name != "setup_s";
            let within = worse <= m.bound && (!gated_spread || spreads.0.max(spreads.1) <= m.bound);
            println!(
                "repeat {} {} median_a {a} median_b {b} worse {:+.4} spread_a {:.4} spread_b {:.4} \
                 bound {} -> {}",
                w.name,
                m.name,
                worse,
                spreads.0,
                spreads.1,
                m.bound,
                if within { "ok" } else { "OUTSIDE" }
            );
            ok &= within;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
