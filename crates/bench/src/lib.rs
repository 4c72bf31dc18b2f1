//! Shared experiment harness: CLI parsing, timing, table and JSON output.
//!
//! Each binary in this crate regenerates one table of the paper or one
//! ablation (see `DESIGN.md` §6 and `EXPERIMENTS.md`):
//!
//! * `table1` — number of generated partitions (Table 1),
//! * `table2` — partitioning CPU time (Table 2),
//! * `table3` — query time and disk space, KM vs EKM layouts (Table 3),
//! * `sweep_k` — ablation A1: partitions as a function of K,
//! * `scaling` — ablation A2: linear runtime in the number of nodes,
//! * `memoization` — ablation A3: DP-table cells, shape sharing, pruning,
//! * `related_work` — ablation A4: Lukes vs KM vs the sibling partitioners,
//! * `doc_stats` — structural profiles of the evaluation documents.
//!
//! All binaries accept `--scale <f>` (document size multiplier; default
//! 0.05), `--paper` (shorthand for `--scale 1.0`, the paper's document
//! sizes), `--seed <n>`, `--k <slots>` (default 256) and `--json <path>`.

use std::time::{Duration, Instant};

pub mod json;
pub use json::{Json, ToJson};

pub use natix_core;
pub use natix_datagen;
pub use natix_store;
pub use natix_tree;
pub use natix_xml;
pub use natix_xpath;

/// Parsed command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Document scale; 1.0 = the paper's sizes.
    pub scale: f64,
    /// RNG seed for the generators.
    pub seed: u64,
    /// Weight limit K in slots (paper: 256 slots = 2 KB records).
    pub k: u64,
    /// Optional path for machine-readable JSON results.
    pub json: Option<String>,
    /// Worker threads over the (document × algorithm) grid of `table1` and
    /// `table2` (`--threads`); defaults to the machine's available
    /// parallelism.
    pub threads: usize,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: 0.05,
            seed: 42,
            k: 256,
            json: None,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

impl Args {
    /// Parse from `std::env::args`; exits with a usage message on error.
    pub fn parse() -> Args {
        let mut args = Args::default();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            let mut value = |what: &str| {
                it.next().unwrap_or_else(|| {
                    eprintln!("missing value for {what}");
                    std::process::exit(2);
                })
            };
            match a.as_str() {
                "--scale" => {
                    args.scale = value("--scale").parse().unwrap_or_else(|_| {
                        eprintln!("--scale expects a float");
                        std::process::exit(2);
                    })
                }
                "--paper" => args.scale = 1.0,
                "--seed" => {
                    args.seed = value("--seed").parse().unwrap_or_else(|_| {
                        eprintln!("--seed expects an integer");
                        std::process::exit(2);
                    })
                }
                "--k" => {
                    args.k = value("--k").parse().unwrap_or_else(|_| {
                        eprintln!("--k expects an integer");
                        std::process::exit(2);
                    })
                }
                "--json" => args.json = Some(value("--json")),
                "--threads" => {
                    args.threads = value("--threads").parse().unwrap_or_else(|_| {
                        eprintln!("--threads expects a positive integer");
                        std::process::exit(2);
                    });
                    if args.threads == 0 {
                        eprintln!("--threads expects a positive integer");
                        std::process::exit(2);
                    }
                }
                "--help" | "-h" => {
                    eprintln!(
                        "options: --scale <f> | --paper | --seed <n> | --k <slots> | \
                         --json <path> | --threads <n>"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown option {other}; try --help");
                    std::process::exit(2);
                }
            }
        }
        args
    }
}

/// Time a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed())
}

/// Median wall-clock time of `runs` executions (after one warm-up run).
pub fn median_time(runs: usize, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    let mut samples: Vec<Duration> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Render with aligned columns (first column left-aligned, the rest
    /// right-aligned).
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let emit = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                if i == 0 {
                    out.push_str(&format!("{:<width$}", c, width = widths[i]));
                } else {
                    out.push_str(&format!("{:>width$}", c, width = widths[i]));
                }
            }
            out.push('\n');
        };
        emit(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }
}

/// Write `results` as pretty JSON if `--json` was given.
pub fn write_json<T: ToJson>(args: &Args, results: &T) {
    let Some(path) = &args.json else { return };
    let json = results.to_json().render_pretty();
    std::fs::write(path, json).unwrap_or_else(|e| {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {path}");
}

/// Human-friendly duration (s with ms precision, or ms/µs for short ones).
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["Doc", "N"]);
        t.row(vec!["a.xml".into(), "12".into()]);
        t.row(vec!["long-name.xml".into(), "3".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Doc"));
        assert!(lines[3].ends_with(" 3"));
    }

    #[test]
    fn median_time_is_positive() {
        let d = median_time(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        let _ = d;
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7µs");
    }
}
