//! The host record printed with every result, so a number can be told
//! apart from a hardware or toolchain change.

use std::process::Command;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `target-cpu` as the build saw it: `RUSTFLAGS` wins over the checkout's
/// `.cargo/config.toml`, as in Cargo.
fn target_cpu() -> String {
    let from = |flags: &str| {
        flags
            .split(|c: char| c.is_whitespace() || c == '"' || c == ',')
            .find_map(|f| f.strip_prefix("target-cpu="))
            .map(str::to_string)
    };
    if let Ok(flags) = std::env::var("RUSTFLAGS") {
        return from(&flags).unwrap_or_else(|| "default".into());
    }
    std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|s| from(&s))
        .unwrap_or_else(|| "default".into())
}

/// Runs a command to completion and returns its trimmed stdout.
fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit, when the working directory is the top of a git checkout.
fn commit() -> String {
    let cwd = std::env::current_dir().ok();
    let top = output_of("git", &["rev-parse", "--show-toplevel"]).map(std::path::PathBuf::from);
    match (cwd, top) {
        (Some(cwd), Some(top)) if cwd == top => {
            output_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into())
        }
        _ => "none (not a git checkout)".into(),
    }
}

/// FNV-1a digest of the workspace sources (`Cargo.lock`, every file under
/// `crates/` and this benchmark's `src/`), so two results name the code
/// they measured even where there is no git metadata.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// One-line JSON host record.
pub fn record() -> String {
    let rustc = output_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let field = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"nproc\":{},\"cpu_model\":\"{}\",\"target_cpu\":\"{}\",\"rustc\":\"{}\",\
         \"commit\":\"{}\",\"source_digest\":\"{}\"}}",
        nproc(),
        field(&cpu_model()),
        field(&target_cpu()),
        field(&rustc),
        field(&commit()),
        source_digest()
    )
}
