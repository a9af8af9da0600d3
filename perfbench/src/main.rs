//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <blocky-kernels|powerlaw-serve|evolving-road>
//!           --seed <n> --seconds <s> --trace <0|1> [--scale smoke] [--shape]
//! ```
//!
//! With `--trace 0` it times the workload's five consumer operations for
//! `--seconds` and prints the end-to-end metrics; with `--trace 1` it
//! replays the workload untraced and traced, runs the per-layer probes,
//! writes the spans under `out/` next to this package, and prints the
//! per-layer metrics. `--shape` prints the generated input's structure
//! and exits. The last stdout line is the result JSON; the line before it
//! records the host and the inputs.

mod blocky;
mod evolving;
mod harness;
mod layers;
mod metrics;
mod powerlaw;
mod trace;
mod workload;

use harness::{Checks, Sampler, Samples, NOMINAL_REF_NS};
use metrics::{Report, END_TO_END, OPS, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workload::{replay, Scale, Workload};

/// Workload names, as the command line takes them.
const WORKLOADS: [&str; 3] = ["blocky-kernels", "powerlaw-serve", "evolving-road"];

/// Share of an untraced run spent repeating the set-up. The repeats are
/// spread over the run, one between rounds whenever the set-ups are
/// behind this share, so they see the host's speed phases as the
/// operations do; `setup_s` comes from their median.
const SETUP_SHARE: f64 = 0.1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    shape: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        shape: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--shape" {
            args.shape = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad(&"expected full or smoke")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn build(name: &str, seed: u64, scale: Scale) -> Box<dyn Workload> {
    match name {
        "blocky-kernels" => Box::new(blocky::Blocky::setup(seed, scale)),
        "powerlaw-serve" => Box::new(powerlaw::Powerlaw::setup(seed, scale)),
        _ => Box::new(evolving::Evolving::setup(seed, scale)),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut sampler = Sampler::new();
    // Taken before the first library call: the baseline of host.ref_drift.
    let ref_before = sampler.baseline(64);

    let mut setups = Samples::default();
    let mut w = sampler.sample(&mut setups, 1, || {
        build(&args.workload, args.seed, args.scale)
    });
    let shape = w.shape();
    if args.shape {
        println!("{}", shape_json(&shape));
        return ExitCode::SUCCESS;
    }
    w.prepare_oracles();

    let min = match args.scale {
        Scale::Full => 5,
        Scale::Smoke => 1,
    };
    let mut checks = Checks::default();
    let mut report = Report::default();
    let ops = w.ops();
    if !args.trace {
        let start = Instant::now();
        let mut resetup = |sampler: &mut Sampler| {
            let spent: f64 = setups.raw_ns.iter().sum();
            if spent < SETUP_SHARE * start.elapsed().as_nanos() as f64 {
                sampler.sample(&mut setups, 1, || {
                    build(&args.workload, args.seed, args.scale)
                });
            }
        };
        let samples = replay(
            w.as_mut(),
            &mut sampler,
            &mut Tracer::off(),
            &mut checks,
            args.seconds,
            min,
            &mut resetup,
        );
        // `norm` counts nominal reference times; scaled by that time it
        // reads in seconds.
        report.set("setup_s", setups.norm_median() * NOMINAL_REF_NS / 1e9);
        for (k, s) in samples.iter().enumerate() {
            report.set(format!("op{}_ref", k + 1), s.norm_median());
        }
        report.set("bytes_per_nnz", w.bytes_per_nnz());
    } else {
        let third = args.seconds / 3.0;
        let plain = replay(
            w.as_mut(),
            &mut sampler,
            &mut Tracer::off(),
            &mut checks,
            third,
            min,
            &mut |_| {},
        );
        let mut tracer = Tracer::on();
        let traced = replay(
            w.as_mut(),
            &mut sampler,
            &mut tracer,
            &mut checks,
            third,
            min,
            &mut |_| {},
        );
        record_replay(&mut report, &plain, &traced);
        let budget = third / 16.0;
        layers::probe_all(
            &w.probe_inputs(),
            &mut sampler,
            budget,
            min.min(3),
            args.seed,
            &mut report,
        );
        if let Err(e) = write_spans(&args, &tracer) {
            eprintln!("perfbench: could not write spans: {e}");
            checks.check(false, || format!("span output: {e}"));
        }
    }
    let ref_ms = sampler.ref_ms();
    let ref_drift = ref_ms * 1e6 / ref_before;
    if args.trace {
        report.set("host.ref_ms", ref_ms);
        report.set("host.ref_drift", ref_drift);
    }

    for (k, op) in ops.iter().enumerate() {
        eprintln!("op{}: {}", k + 1, op.what);
    }
    for note in &checks.notes {
        eprintln!("check failed: {note}");
    }
    println!(
        "{}",
        provenance(&args, &shape, ref_ms, ref_drift, &setups, &checks)
    );
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    match report.to_json(registry) {
        Ok(metrics) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
                checks.failed == 0,
                checks.attempted,
                checks.failed
            );
            ExitCode::SUCCESS
        }
        Err(missing) => {
            eprintln!("perfbench: no value for {missing:?}");
            ExitCode::FAILURE
        }
    }
}

/// Per-layer metrics drawn from the two replays: raw times behind each
/// `_ref` and the tracing overhead.
fn record_replay(report: &mut Report, plain: &[Samples], traced: &[Samples]) {
    let mut log_ratio = 0.0;
    for (k, (p, t)) in plain.iter().zip(traced).enumerate() {
        let op = k + 1;
        let (pct, tail) = p.tail_ms();
        report.set(format!("op{op}.raw_ms"), p.raw_median_ms());
        report.set(format!("op{op}.tail_ms"), tail);
        report.set(format!("op{op}.tail_pct"), pct);
        report.set(format!("op{op}.samples"), p.norm.len() as f64);
        log_ratio += (t.norm_median() / p.norm_median()).ln();
    }
    report.set("trace.overhead", (log_ratio / OPS as f64).exp());
}

fn write_spans(args: &Args, tracer: &Tracer) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(path, tracer.to_jsonl())
}

fn shape_json(shape: &[(&str, f64)]) -> String {
    let fields: Vec<String> = shape.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

/// One JSON line naming the host, the toolchain, the commit and the
/// inputs of this run.
fn provenance(
    args: &Args,
    shape: &[(&str, f64)],
    ref_ms: f64,
    ref_drift: f64,
    setups: &Samples,
    checks: &Checks,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let error_rate = checks.failed as f64 / checks.attempted.max(1) as f64;
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cpu\": \"{}\", \"nproc\": {nproc}, \"simd\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"shape\": {}, \"host.ref_ms\": {}, \"host.ref_drift\": {}, \"setup_reps\": {}, \
         \"setup_raw_s\": {}, \"error_rate\": {}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cpu_model().replace('"', "'"),
        smash_matrix::simd::active().name(),
        env!("PERFBENCH_RUSTC"),
        commit(),
        shape_json(shape),
        ref_ms,
        ref_drift,
        setups.len(),
        setups.raw_median_ms() / 1e3,
        error_rate,
    )
}

/// The CPU's brand string, read with `cpuid` (no file access).
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // SAFETY: `cpuid` exists on every x86_64 processor; leaf
        // 0x8000_0000 reports which extended leaves are valid, and the
        // brand-string leaves are only read when it lists them.
        #[allow(unused_unsafe)]
        let max_ext = unsafe { __cpuid(0x8000_0000) }.eax;
        if max_ext >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                // SAFETY: leaf validity checked against `max_ext` above.
                #[allow(unused_unsafe)]
                let r = unsafe { __cpuid(leaf) };
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            let s = String::from_utf8_lossy(&bytes);
            return s.trim_matches(char::from(0)).trim().to_string();
        }
    }
    "unknown".to_string()
}

/// The commit of the checkout, read from `.git` next to this package when
/// there is one.
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(git.join(name)) {
        return id.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
