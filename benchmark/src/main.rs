//! `stbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! stbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! stbench --all [--seed <n>] [--seconds <s>] [--trace]
//! ```
//!
//! The first form runs one workload in this process and ends with the
//! result line `BENCHMARK.json`'s contract asks for; `--all` runs every
//! workload in a child process of its own (its own `VmHWM`, its own
//! scratch directory) and ends with a summary. Run it from the repository
//! root: store files and traces go to `benchmark/out/`.

mod batch;
mod inputs;
mod live;
mod probes;
mod report;
mod serve;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use report::{result_json, Def, Value, DEMOTED, END_TO_END, PER_LAYER};
use workloads::{Workload, WORKLOADS};

/// Threads that generate load, in every phase of every workload: both
/// cores of the reference sandbox. `cores` is printed beside the results.
pub const THREADS: usize = 2;

/// `run_seconds` of `BENCHMARK.json`, the default of `--seconds`.
const DEFAULT_SECONDS: f64 = 15.0;
const DEFAULT_SEED: u64 = 2012;
const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--all" => args.all = true,
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {v}"))?;
            }
            // `--trace 0|1` (the contract) or a bare `--trace`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stbench: {e}\nworkloads:");
            for w in &WORKLOADS {
                eprintln!("  {:12} {}", w.name, w.why);
            }
            return ExitCode::from(2);
        }
    };
    if args.all {
        return run_all(&args);
    }
    let name = args.workload.as_deref().unwrap_or_default();
    let Some(workload) = workloads::by_name(name) else {
        eprintln!("stbench: unknown workload {name}");
        return ExitCode::from(2);
    };
    if run_one(workload, &args, Path::new(OUT_DIR)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `w` here, prints every metric by name and unit and then the result
/// line. Returns whether the run was correct.
fn run_one(w: &Workload, args: &Args, out_dir: &Path) -> bool {
    let scratch = out_dir.join(format!("tmp-{}-{}", w.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("stbench: cannot create {}: {e}", scratch.display());
        return false;
    }
    let (mut outcome, rec) = workloads::run(w, args.seed, args.seconds, args.trace, &scratch);
    if args.trace {
        let path = out_dir.join(format!("{}.trace.jsonl", w.name));
        let written = rec.write_jsonl(&path);
        outcome.check(written.is_ok(), || {
            format!("cannot write {}: {written:?}", path.display())
        });
        println!(
            "{} trace {} spans {}",
            w.name,
            path.display(),
            rec.spans().len()
        );
    }
    let removed = std::fs::remove_dir_all(&scratch);
    outcome.check(removed.is_ok() && !scratch.exists(), || {
        format!("scratch directory {} was left behind", scratch.display())
    });

    // End-to-end metrics are measured with tracing off; the traced run
    // still prints what it read, marked, so the two can be set side by side.
    let e2e = outcome.select(END_TO_END, !args.trace);
    let layers = outcome.select(PER_LAYER, false);
    let tag = if args.trace { " traced" } else { "" };
    for (d, v) in e2e.iter().chain(&layers[..DEMOTED]) {
        println!(
            "{} {} {} {} n={}{tag}",
            w.name, d.name, v.value, d.unit, v.n
        );
    }
    if args.trace {
        for (d, v) in &layers[DEMOTED..] {
            println!("{} {} {} {} n={}", w.name, d.name, v.value, d.unit, v.n);
        }
    }
    println!("{} input_hash {:016x}", w.name, outcome.input_hash);
    println!(
        "{} result_checksum {:016x}",
        w.name,
        outcome.checksum.finish()
    );
    println!(
        "{} operations attempted={} failed={} seed={} seconds={} threads={THREADS}",
        w.name, outcome.attempted, outcome.failed, args.seed, args.seconds
    );
    for failure in &outcome.failures {
        println!("{} FAILED {failure}", w.name);
    }
    let metrics: &[(Def, Value)] = if args.trace { &layers } else { &e2e };
    println!("{}", result_json(&outcome, metrics));
    outcome.correct()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One child run: echoes its lines, returns its exit status, its metric
/// lines (`workload metric value unit ...`) and its final result line.
fn child(w: &Workload, args: &Args, trace: bool) -> (bool, BTreeMap<String, String>, String) {
    let exe = std::env::current_exe().expect("own executable");
    let mut child = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn a workload process");
    let mut values = BTreeMap::new();
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
        let line = line.unwrap_or_default();
        println!("{line}");
        let mut words = line.split_whitespace();
        if let (Some(_), Some(metric), Some(value)) = (words.next(), words.next(), words.next()) {
            if value.parse::<f64>().is_ok() {
                values.insert(metric.to_string(), value.to_string());
            }
        }
        last = line;
    }
    let ok = child.wait().map(|s| s.success()).unwrap_or(false);
    (ok, values, last)
}

/// Every workload, each in a fresh process, untraced and — with `--trace`
/// — traced; then where the run was made and a summary that claims nothing.
fn run_all(args: &Args) -> ExitCode {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load = stats::load_average();
    let noisy = load.is_some_and(|l| l > 0.5 * cores as f64);
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    let rustc = command_line("rustc", &["-V"]);
    println!(
        "stbench cores={cores} threads={THREADS} commit={commit} rustc=\"{rustc}\" load1={} noisy={noisy} \
         seed={} seconds={} durability=Buffered",
        load.map_or("unknown".to_string(), |l| l.to_string()),
        args.seed,
        args.seconds,
    );
    let mut all_ok = true;
    let mut results = Vec::new();
    for w in &WORKLOADS {
        let (ok, untraced, line) = child(w, args, false);
        all_ok &= ok;
        results.push(format!("\"{}\": {line}", w.name));
        if args.trace {
            let (ok, traced, line) = child(w, args, true);
            all_ok &= ok;
            results.push(format!("\"{}.traced\": {line}", w.name));
            for d in END_TO_END.iter().chain(&PER_LAYER[..DEMOTED]) {
                if let (Some(u), Some(t)) = (untraced.get(d.name), traced.get(d.name)) {
                    println!("{} {} untraced={u} traced={t} {}", w.name, d.name, d.unit);
                }
            }
        }
    }
    println!(
        "{{\"cores\": {cores}, \"threads\": {THREADS}, \"commit\": \"{commit}\", \"rustc\": \"{rustc}\", \
         \"load1\": {}, \"noisy\": {noisy}, \"seed\": {}, \"seconds\": {}, \"correct\": {all_ok}, \
         \"workloads\": {{{}}}, \"claim\": null}}",
        load.map_or("null".to_string(), report::json_number),
        args.seed,
        report::json_number(args.seconds),
        results.join(", "),
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::tests::smoke;
    use std::path::PathBuf;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_contract_and_the_short_forms() {
        let a = parse(&argv("--workload hit --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: Some("hit".into()),
                all: false,
                seed: 7,
                seconds: 3.0,
                trace: true
            }
        );
        assert!(!parse(&argv("--workload hit --trace 0")).unwrap().trace);
        let all = parse(&argv("--all --trace")).unwrap();
        assert!(all.all && all.trace);
        assert_eq!((all.seed, all.seconds), (DEFAULT_SEED, DEFAULT_SECONDS));
        for bad in [
            "",
            "--all --workload x",
            "--workload",
            "--all --seed x",
            "--all --seconds 0",
            "--all --fast",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// All four workloads end to end at smoke size, untraced: every
    /// end-to-end metric is measured and positive, every check passes, the
    /// seed decides inputs and results.
    #[test]
    fn smoke_runs_every_workload_and_the_seed_decides_the_outcome() {
        let dir = scratch("smoke");
        let mut first = Vec::new();
        for w in &WORKLOADS {
            let (mut o, _) = workloads::run(&smoke(w), 11, 0.4, false, &dir.join(w.name));
            let mut named = o.select(END_TO_END, true);
            named.extend(o.select(&PER_LAYER[..DEMOTED], true));
            for (d, v) in named {
                assert!(v.value > 0.0, "{} {} = {}", w.name, d.name, v.value);
            }
            assert!(o.correct(), "{}: {:?}", w.name, o.failures);
            assert!(o.attempted > 100);
            first.push((o.input_hash, o.checksum.finish()));
        }
        // Same seed again: identical inputs and identical answers.
        let w = smoke(&WORKLOADS[3]);
        let (again, _) = workloads::run(&w, 11, 0.4, false, &dir.join("again"));
        assert_eq!((again.input_hash, again.checksum.finish()), first[3]);
        // Another seed: other inputs.
        let (other, _) = workloads::run(&w, 12, 0.4, false, &dir.join("other"));
        assert_ne!(other.input_hash, first[3].0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The traced run: every per-layer metric the phases produce, the
    /// trace file, and both accounting checks.
    #[test]
    fn traced_smoke_accounts_for_its_time() {
        let dir = scratch("traced");
        let w = smoke(&WORKLOADS[3]);
        let (mut o, rec) = workloads::run(&w, 11, 1.0, true, &dir);
        assert!(o.correct(), "{:?}", o.failures);
        for (d, v) in o.select(PER_LAYER, false) {
            assert!(v.n > 0, "{} was not measured", d.name);
        }
        assert!(o.get("trace.coverage_ratio").unwrap().value >= 0.95);
        let path = dir.join("t.jsonl");
        rec.write_jsonl(&path).unwrap();
        let lines = std::fs::read_to_string(&path).unwrap();
        assert_eq!(lines.lines().count(), rec.spans().len());
        assert!(lines
            .lines()
            .all(|l| l.starts_with("{\"id\": ") && l.ends_with('}')));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A corrupted expectation must surface as a failed run (non-zero
    /// exit): here the recovery check is given a store that already holds
    /// state, so "a fresh directory recovers nothing" is false.
    #[test]
    fn a_corrupted_expectation_fails_the_run() {
        let dir = scratch("corrupt");
        let w = smoke(&WORKLOADS[1]);
        let (clean, _) = workloads::run(&w, 11, 0.2, false, &dir);
        assert!(clean.correct());
        // The store directory is still there: the second run's durable
        // phase opens it and finds ticks it did not expect.
        let (dirty, _) = workloads::run(&w, 11, 0.2, false, &dir);
        assert!(!dirty.correct());
        assert!(dirty.failures.iter().any(|f| f.contains("recovered state")));
        let args = Args {
            workload: Some(w.name.into()),
            all: false,
            seed: 11,
            seconds: 0.2,
            trace: false,
        };
        std::fs::remove_dir_all(&dir).unwrap();
        // And `run_one` turns an incorrect outcome into `false` → exit 1.
        let blocked = dir.join("file-not-dir");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&blocked, b"x").unwrap();
        assert!(!run_one(&w, &args, &blocked));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
