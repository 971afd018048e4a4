//! The repository's benchmark: warm in-process servers over loopback,
//! driven closed-loop, with every workload's oracle checked in the same
//! run.
//!
//! ```text
//! perfbench --workload <oltp_plain|oltp_deleg_xshard>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Scratch state
//! lives under `.perfbench_run/` in the working directory; a traced run
//! leaves its spans there.

mod bench;
mod gen;
mod image;
mod replay;
mod serve;
mod spans;
mod stats;

use std::path::Path;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = bench::workloads().into_iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = bench::workloads().iter().map(|w| w.name).collect();
        eprintln!("perfbench: unknown workload {} (known: {})", args.workload, names.join(", "));
        std::process::exit(2);
    };
    let work = Path::new(".perfbench_run");
    let out = bench::run(&w, args.seed, args.seconds, args.trace, work);
    let mut fields = Vec::new();
    for m in &out.metrics {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        fields.push(format!("\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        fields.join(", ")
    );
}
