//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <sim_sweep|sim_stream|gate_replay|gate_tcp|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up several times (each in a
//! child process, so set-up memory never counts against the measured
//! process), measures for `--seconds`, checks the outputs and prints
//! every end-to-end metric. With `--trace 1` it prints every per-layer
//! metric of a traced run instead. Either way the last line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`, and the exit
//! code is non-zero when an output check failed. Scratch files live in
//! `.perfbench_work/<workload>-<pid>/` under the current directory and are
//! removed at exit; a traced run leaves its spans in
//! `.perfbench_work/<workload>-seed<N>.trace.tsv`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use perfbench::report::{median, Outcome, END_TO_END, PER_LAYER};
use perfbench::{run, Params, Workload};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set when this process is a set-up child: run one set-up in `dir`.
    setup_in: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: 10.0, trace: false, setup_in: None };
    let mut all = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" if value == "all" => all = true,
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("not an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad("must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("use 0 or 1")),
                }
            }
            "--setup-in" => args.setup_in = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_none() && !all {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// Removes the scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))
}

/// Runs one set-up of `w` in a child process; returns its seconds.
fn child_setup(w: Workload, args: &Args, dir: &Path) -> Result<f64, String> {
    let out = Command::new(exe()?)
        .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--setup-in")
        .arg(dir)
        .output()
        .map_err(|e| format!("cannot start a set-up process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} set-up failed: {}",
            w.name(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("{} set-up printed no time", w.name()))
}

fn run_one(w: Workload, args: &Args) -> Result<bool, String> {
    let dir = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(".perfbench_work")
        .join(format!("{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let _scratch = Scratch(dir.clone());
    let params = Params { seed: args.seed, seconds: args.seconds, dir: dir.clone() };
    let io = |e: std::io::Error| format!("{}: {e}", w.name());
    let outcome: Outcome = if args.trace {
        let out = run::trace(w, &params).map_err(io)?;
        let spans = dir.with_file_name(format!("{}-seed{}.trace.tsv", w.name(), args.seed));
        let mut text = out.trace_rows.join("\n");
        text.push('\n');
        std::fs::write(&spans, text)
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
        println!("{} trace rows written to {}", w.name(), spans.display());
        out.print(w.name(), &PER_LAYER)?;
        out
    } else {
        // Each set-up starts in an empty directory, as the first one in a
        // checkout does: rewriting a file in place makes the file system
        // flush it at a varying cost. The measurement uses the last one's
        // files.
        let mut setups = Vec::new();
        let mut measured = params;
        for i in 0..w.setup_repeats() {
            let sub = dir.join(format!("setup{i}"));
            std::fs::create_dir_all(&sub)
                .map_err(|e| format!("cannot create {}: {e}", sub.display()))?;
            setups.push(child_setup(w, args, &sub)?);
            if i + 1 < w.setup_repeats() {
                std::fs::remove_dir_all(&sub)
                    .map_err(|e| format!("cannot remove {}: {e}", sub.display()))?;
            } else {
                measured.dir = sub;
            }
        }
        let mut out = run::measure(w, &measured).map_err(io)?;
        out.put("setup_s", median(&setups), setups.len() as u64);
        out.print(w.name(), &END_TO_END)?;
        out
    };
    Ok(outcome.correct())
}

/// `--workload all`: each workload in its own process, so each one's
/// peak memory is its own.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut correct = true;
    for w in Workload::ALL {
        let status = Command::new(exe()?)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("cannot start {}: {e}", w.name()))?;
        correct &= status.success();
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match (&args.setup_in, args.workload) {
        (Some(dir), Some(w)) => {
            let params = Params { seed: args.seed, seconds: args.seconds, dir: dir.clone() };
            let times = run::setup(w, &params).map_err(|e| format!("{}: {e}", w.name()))?;
            println!("setup_s {}", times.total_s);
            Ok(true)
        }
        (None, Some(w)) => run_one(w, &args),
        (_, None) => run_all(&args),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
