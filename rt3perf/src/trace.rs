//! The traced run's span recorder and the environment stamp.
//!
//! Spans are recorded by the benchmark around each call into a layer of the
//! program (the program itself is not instrumented further). They stay in
//! memory while the workload runs and are written out as JSONL when it ends,
//! so recording costs one `Vec` push per span.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug)]
pub struct Span {
    /// Layer call, e.g. `"bank.get"` or `"socket.send"`.
    pub name: &'static str,
    /// Span that caused this one (0 = none).
    pub parent: u64,
    /// Request the span belongs to (spans of one request share it).
    pub request: u64,
    /// Start, microseconds since the recorder was created.
    pub start_us: f64,
    /// End, microseconds since the recorder was created.
    pub end_us: f64,
}

/// In-memory span store; a disabled recorder records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span and returns its id (1-based; 0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            parent,
            request,
            start_us: us(start),
            end_us: us(end),
        });
        self.spans.len() as u64
    }

    /// Appends the spans of a [`Tracer::fork`]. Forks record root spans
    /// only (parent 0), so span ids need no renumbering.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// A recorder sharing this one's time origin, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
        }
    }

    /// Number of spans kept.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON line to `path`, after a first line
    /// holding the environment stamp.
    pub fn write_jsonl(&self, path: &Path, stamp: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{stamp}")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"request\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                i + 1,
                s.name,
                s.parent,
                s.request,
                s.start_us,
                s.end_us
            )?;
        }
        out.flush()
    }
}

/// The host and build a result was measured on, as one JSON object: git
/// revision (read from `.git` when the checkout has one), CPU features, the
/// kernel backend `rt3_sparse` dispatches, available parallelism, workload
/// and seed. Results whose stamps differ are not comparable.
pub fn env_stamp(workload: &str, seed: u64) -> String {
    let flags: Vec<&str> = cpu_flags();
    format!(
        "{{\"env\":{{\"git_rev\":\"{}\",\"cpu_flags\":\"{}\",\"backend\":\"{}\",\"available_parallelism\":{},\"workload\":\"{workload}\",\"seed\":{seed}}}}}",
        git_rev(),
        flags.join(" "),
        rt3_sparse::Backend::detect().label(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
}

fn cpu_flags() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut flags = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, present) in [
            ("sse4.2", is_x86_feature_detected!("sse4.2")),
            ("avx", is_x86_feature_detected!("avx")),
            ("avx2", is_x86_feature_detected!("avx2")),
            ("fma", is_x86_feature_detected!("fma")),
            ("avx512f", is_x86_feature_detected!("avx512f")),
        ] {
            if present {
                flags.push(name);
            }
        }
    }
    flags
}

/// The commit checked out in the working directory, or `"unknown"` when it
/// is not a git checkout. Only `.git` inside the working directory is read.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_keeps_nothing_and_forks_merge_back() {
        let now = Instant::now();
        let mut off = Tracer::new(false);
        assert_eq!(off.record("x", 0, 1, now, now), 0);
        assert_eq!(off.len(), 0);

        let mut main = Tracer::new(true);
        let root = main.record("root", 0, 1, now, now);
        assert_eq!(main.record("child", root, 1, now, now), 2);
        let mut other = main.fork();
        other.record("a", 0, 2, now, now);
        main.absorb(other);
        assert_eq!(main.len(), 3);
        assert_eq!(main.spans[2].name, "a");
    }
}
