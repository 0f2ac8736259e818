//! `perfbench`: one benchmark for Grover's tuning path — cache-miss tunes
//! in process, and cache hits, predictions and misses through the HTTP
//! service. See README.md for the workloads, the metrics and how to
//! compare two result files.

mod cases;
mod clock;
mod report;
mod serve;
mod stats;
mod trace;
mod tune;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use grover_kernels::Scale;
use grover_obs::json::{self, Json, Obj};

use cases::{serve_keys, tune_cases, Expected};
use report::{find, Better, MetricDef, Report, END_TO_END, PER_LAYER};
use trace::Tracer;

const USAGE: &str = "usage:
  perfbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
            [--repeat N] [--out FILE] [--trace-out FILE]
  perfbench --compare A.json B.json
  perfbench --bless
workloads: tune-small, tune-test, serve-read, serve-mix";

/// The workloads; README.md records why each was chosen.
const WORKLOADS: [&str; 4] = ["tune-small", "tune-test", "serve-read", "serve-mix"];

/// Length of the timed phase when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: u64,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    /// Internal: where a child of `--workload all` writes its run record.
    record: Option<PathBuf>,
    bless: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        repeat: 1,
        out: None,
        trace_out: None,
        record: None,
        bless: false,
        compare: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds: `{v}` is not a positive number"))?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                }
            }
            "--repeat" => args.repeat = number(value()?)?.max(1),
            "--out" => args.out = Some(value()?.into()),
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--record" => args.record = Some(value()?.into()),
            "--bless" => args.bless = true,
            "--compare" => {
                let a = value()?.into();
                let b = it.next().ok_or("--compare needs two files")?.into();
                args.compare = Some((a, b));
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if let Some(w) = &args.workload {
        if w != "all" && !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    if args.workload.is_none() && !args.bless && args.compare.is_none() {
        return Err("nothing to do".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    if let Err(e) = clock::pin_malloc_thresholds() {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((a, b)) = &args.compare {
        compare(a, b)
    } else if args.bless {
        bless()
    } else if args.workload.as_deref() == Some("all") {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A work directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

const WORK_ROOT: &str = ".perfbench-work";

impl WorkDir {
    fn create(tag: &str) -> Result<WorkDir, String> {
        let dir = Path::new(WORK_ROOT).join(format!("{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // Only succeeds once no other run is using the root.
        std::fs::remove_dir(WORK_ROOT).ok();
    }
}

fn run_workload(
    name: &str,
    args: &Args,
    work: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let (seed, seconds) = (args.seed, args.seconds);
    if !args.traced {
        return match name {
            "tune-small" => tune::timed(Scale::Small, seed, seconds, report),
            "tune-test" => tune::timed(Scale::Test, seed, seconds, report),
            "serve-read" => serve::read(&serve_keys(Scale::Test), seed, seconds, work, report),
            _ => serve::mix(&serve_keys(Scale::Test), seed, seconds, work, report),
        };
    }
    // The traced pass covers every layer on the workload's own inputs: a
    // serial replica of its tunes (for the serve workloads, the tunes its
    // keys cost on a miss), then the serve path over its keys.
    let (replica, served) = match name {
        "tune-small" => (tune_cases(Scale::Small), serve_keys(Scale::Small)),
        "tune-test" => (tune_cases(Scale::Test), serve_keys(Scale::Test)),
        _ => (serve_keys(Scale::Test), serve_keys(Scale::Test)),
    };
    tune::traced(&replica, seed, name == "tune-small", tracer, report)?;
    serve::traced(&served, seed, name == "serve-mix", work, tracer, report)
}

/// Run one workload in this process and print its result as the last line.
fn run_one(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().expect("checked by parse_args");
    let work = WorkDir::create(name)?;
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let t0 = Instant::now();
    if let Err(e) = run_workload(name, args, &work.0, &mut tracer, &mut report) {
        report.fail(e);
    }
    report.set("peak_rss_mb", clock::peak_rss_mib());
    report
        .durations
        .insert("run_s".into(), t0.elapsed().as_secs_f64());

    let defs = if args.traced { PER_LAYER } else { END_TO_END };
    println!(
        "perfbench {name} seed {} ({})",
        args.seed,
        if args.traced { "traced" } else { "timed" }
    );
    for line in &report.notes {
        println!("{line}");
    }
    if args.traced {
        println!("  span                              count     wall_ms     self_ms");
        for (span, n, wall, own) in tracer.summary() {
            println!(
                "  {span:<32} {n:>6} {:>11.1} {:>11.1}",
                wall as f64 / 1e3,
                own as f64 / 1e3
            );
        }
    }
    for line in report.metric_lines(defs) {
        println!("{line}");
    }
    for f in report.failures() {
        eprintln!("FAILED: {f}");
    }
    let metrics = report.metrics_json(defs)?;
    let run = run_json(name, args, &report, &metrics);
    if let Some(path) = &args.record {
        write(path, &run)?;
    }
    if let Some(path) = &args.out {
        write(path, &document(&[run]))?;
    }
    if let Some(path) = &args.trace_out {
        write(path, &tracer.to_jsonl(name))?;
    }
    println!("{}", report.result_json(&metrics));
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_json(name: &str, args: &Args, report: &Report, metrics: &str) -> String {
    Obj::new()
        .str("workload", name)
        .u64("seed", args.seed)
        .f64("seconds", args.seconds)
        .bool("traced", args.traced)
        .bool("correct", report.correct())
        .u64("attempted", report.attempted)
        .u64("failed", report.failed)
        .raw("metrics", metrics)
        .raw("raw", &report.raw_json())
        .raw("samples", &report.samples_json())
        .raw("durations", &report.durations_json())
        .finish()
}

/// The first line of `program args`' output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .to_string()
    })
}

/// Where a result came from (the `build-info` of the pcc tool chain).
fn build_info() -> String {
    let rev = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = rev.as_ref().map(|_| {
        Command::new("git")
            .args(["status", "--porcelain", "--untracked-files=no"])
            .output()
            .is_ok_and(|o| !o.stdout.is_empty())
    });
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let obj = Obj::new().str("git_rev", rev.as_deref().unwrap_or("unknown"));
    let obj = match dirty {
        Some(d) => obj.bool("git_dirty", d),
        None => obj.null("git_dirty"),
    };
    obj.str(
        "rustc",
        &command_line(&rustc, &["-V"]).unwrap_or_else(|| "unknown".into()),
    )
    .u64(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
    )
    .str("pass_fingerprint", &grover_core::pass_fingerprint())
    .str("os", std::env::consts::OS)
    .str("arch", std::env::consts::ARCH)
    .finish()
}

fn document(runs: &[String]) -> String {
    Obj::new()
        .raw("build_info", &build_info())
        .raw("runs", &json::array(runs.iter().cloned()))
        .finish()
        + "\n"
}

/// `--workload all`: every workload in a child process of its own,
/// `--repeat` timed runs each (seeds `seed`, `seed + 1`, ...) followed by
/// one traced run.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let work = WorkDir::create("all")?;
    let mut runs = Vec::new();
    let mut spans = String::new();
    let mut ok = true;
    for name in WORKLOADS {
        for (n, traced) in (0..args.repeat).map(|r| (r, false)).chain([(0, true)]) {
            let record = work.0.join(format!("{name}-{n}-{traced}.json"));
            let trace_file = work.0.join(format!("{name}.jsonl"));
            let seed = (args.seed + n).to_string();
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &seed])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--record")
                .arg(&record);
            if traced {
                cmd.arg("--trace-out").arg(&trace_file);
            }
            let status = cmd.status().map_err(|e| format!("{name}: {e}"))?;
            ok &= status.success();
            match std::fs::read_to_string(&record) {
                Ok(run) => runs.push(run),
                Err(_) => eprintln!("perfbench: {name} produced no result"),
            }
            if traced {
                spans += &std::fs::read_to_string(&trace_file).unwrap_or_default();
            }
        }
    }
    if let Some(path) = &args.out {
        write(path, &document(&runs))?;
    }
    if let Some(path) = &args.trace_out {
        write(path, &spans)?;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Regenerate `expected.tsv`: one tune of every in-process case and one
/// miss of every serve key, at both scales.
fn bless() -> Result<ExitCode, String> {
    let work = WorkDir::create("bless")?;
    let mut table = Expected::default();
    for scale in [Scale::Small, Scale::Test] {
        tune::bless(scale, &mut table)?;
        let dir = work.0.join(cases::scale_name(scale));
        serve::bless(&serve_keys(scale), &dir, &mut table)?;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.tsv");
    write(Path::new(path), &table.render())?;
    println!("wrote {path}");
    Ok(ExitCode::SUCCESS)
}

/// How a metric moved between two result files.
#[derive(Debug, PartialEq)]
enum Verdict {
    Within,
    Regressed,
    Improved,
    /// Per-layer metrics carry no bound.
    Unbounded,
}

fn verdict(def: &MetricDef, base: f64, new: f64) -> Verdict {
    let Some(bound) = def.bound else {
        return Verdict::Unbounded;
    };
    // Worsening as a share of the base median.
    let worse = match def.better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

/// `(workload, traced) -> metric -> values` over a result file's runs.
type Grouped =
    std::collections::BTreeMap<(String, bool), std::collections::BTreeMap<String, Vec<f64>>>;

fn grouped(path: &Path) -> Result<Grouped, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Grouped::new();
    for run in doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
        let (Some(w), Some(Json::Obj(metrics))) = (run.str_of("workload"), run.get("metrics"))
        else {
            continue;
        };
        let group = out
            .entry((w.to_string(), run.bool_of("traced") == Some(true)))
            .or_default();
        for (name, m) in metrics {
            if let Some(v) = m.f64_of("value") {
                group.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

/// `--compare A.json B.json`: per workload and metric, both medians, their
/// ratio and whether B stays within the metric's bound. Exits non-zero
/// when an end-to-end metric regressed.
fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let (base, new) = (grouped(a)?, grouped(b)?);
    let mut regressed = false;
    println!(
        "{:<11} {:<32} {:>13} {:>13} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "B/A"
    );
    for ((workload, traced), metrics) in &base {
        let Some(other) = new.get(&(workload.clone(), *traced)) else {
            println!("{workload:<11} (missing from {})", b.display());
            continue;
        };
        for (name, values) in metrics {
            let (Some(def), Some(theirs)) = (find(name), other.get(name)) else {
                continue;
            };
            let (Some(ma), Some(mb)) = (stats::median(values), stats::median(theirs)) else {
                continue;
            };
            let v = verdict(def, ma, mb);
            regressed |= v == Verdict::Regressed;
            let bound = def
                .bound
                .map_or("-".to_string(), |b| format!("±{:.0} %", b * 100.0));
            println!(
                "{workload:<11} {name:<32} {ma:>13.4} {mb:>13.4} {:>8.3}  {v:?} ({bound}, {} vs {} runs)",
                mb / ma,
                values.len(),
                theirs.len()
            );
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments() {
        let a = parse_args(&strings(&[
            "--workload",
            "tune-test",
            "--seed",
            "9",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("tune-test"));
        assert_eq!((a.seed, a.seconds, a.traced), (9, 2.5, true));
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2", "--workload", "all"])).is_err());
        assert!(parse_args(&strings(&[])).is_err());
    }

    #[test]
    fn compare_verdicts_respect_direction_and_bound() {
        let latency = find("latency_ms").unwrap();
        let b = latency.bound.unwrap();
        let at = |share: f64| verdict(latency, 10.0, 10.0 * (1.0 + share));
        assert_eq!(at(b / 2.0), Verdict::Within);
        assert_eq!(at(2.0 * b), Verdict::Regressed);
        assert_eq!(at(-2.0 * b), Verdict::Improved);
        let throughput = find("throughput_per_s").unwrap();
        let b = throughput.bound.unwrap();
        let at = |share: f64| verdict(throughput, 100.0, 100.0 * (1.0 + share));
        assert_eq!(at(-2.0 * b), Verdict::Regressed);
        assert_eq!(at(2.0 * b), Verdict::Improved);
        let layer = find("runtime.exec_ms").unwrap();
        assert_eq!(verdict(layer, 1.0, 5.0), Verdict::Unbounded);
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|w| w.str_of("name"))
            .collect();
        assert_eq!(listed, WORKLOADS);
        assert_eq!(doc.f64_of("run_seconds"), Some(DEFAULT_SECONDS));
    }
}
