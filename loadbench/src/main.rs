//! `exes-loadbench`: drives one workload through router → worker → engine
//! and prints one JSON result line.
//!
//! ```text
//! exes-loadbench --workload <cold_explain|warm_replay|commit_churn>
//!                --seed <n> --seconds <n> --trace <0|1> [--steady <runs>]
//! ```
//!
//! `--steady N` repeats the workload N times (seeds 1..=N), each run in a
//! child process, and prints the median and quartiles of every metric.

use exes_loadbench::run::{run, Options, Workload};
use exes_loadbench::stats::python_quartiles;
use std::collections::BTreeMap;
use std::process::Command;

fn usage(problem: &str) -> ! {
    eprintln!("exes-loadbench: {problem}");
    eprintln!(
        "usage: exes-loadbench --workload <{}> --seed <n> --seconds <n> --trace <0|1> [--steady <runs>]",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut steady) = (1u64, 10u64, false, None::<usize>);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag}: not a number")))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{value}'"))),
                )
            }
            "--seed" => seed = number(),
            "--seconds" => seconds = number().max(1),
            "--trace" => trace = number() != 0,
            "--steady" => steady = Some(number().max(1) as usize),
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    match steady {
        Some(runs) => steadiness(workload, seconds, trace, runs),
        None => {
            let outcome = run(&Options {
                workload,
                seed,
                seconds,
                trace,
            });
            println!("{}", outcome.to_json());
        }
    }
}

/// Runs the workload `runs` times with seeds 1..=runs, one child process
/// each (so every run sets up from nothing), and prints per metric the
/// median, the quartiles and the interquartile spread as a share of the
/// median.
fn steadiness(workload: Workload, seconds: u64, trace: bool, runs: usize) {
    let exe = std::env::current_exe().expect("the benchmark's own path");
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut failed_shares = Vec::new();
    for seed in 1..=runs as u64 {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .output()
            .expect("run the benchmark");
        for line in String::from_utf8_lossy(&output.stderr).lines() {
            if line.starts_with("loadbench:") {
                eprintln!("seed {seed}: {line}");
            }
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let doc = exes_server::json::parse(last).unwrap_or_else(|_| {
            eprintln!("{}", String::from_utf8_lossy(&output.stderr));
            panic!("seed {seed}: no result line")
        });
        let num = |k: &str| {
            doc.get(k)
                .and_then(exes_server::json::Json::as_f64)
                .unwrap_or(0.0)
        };
        failed_shares.push(num("failed") / num("attempted").max(1.0));
        if let Some(exes_server::json::Json::Obj(metrics)) = doc.get("metrics") {
            for (name, m) in metrics {
                let v = m
                    .get("value")
                    .and_then(exes_server::json::Json::as_f64)
                    .unwrap_or(f64::NAN);
                values.entry(name.clone()).or_default().push(v);
            }
        }
        eprintln!("steady: seed {seed} done");
    }
    println!("workload {} · {runs} runs · {seconds} s", workload.name());
    println!(
        "{:<34} {:>12} {:>12} {:>12} {:>8}",
        "metric", "q1", "median", "q3", "iqr/med"
    );
    for (name, v) in &values {
        let [q1, q2, q3] = python_quartiles(v);
        let spread = if q2 != 0.0 {
            (q3 - q1) / q2.abs()
        } else {
            f64::NAN
        };
        println!("{name:<34} {q1:>12.4} {q2:>12.4} {q3:>12.4} {spread:>8.4}");
    }
    println!("failed shares: {failed_shares:?}");
}
