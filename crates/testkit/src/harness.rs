//! The one campaign harness: a table of campaigns, one report shape.
//!
//! Every `natix soak` / `natix stress` mode is a row of [`CAMPAIGNS`]: a
//! name, the command words that select it, which of `--seed`, `--runs`
//! and a server binary it can honour, and a function that runs one
//! [`Tier`] and returns a [`Report`]. The CLI parses flags, looks the row
//! up ([`select`]), lets the row refuse what it cannot honour
//! ([`Campaign::plan`]), arms one replay banner from the [`Plan`], runs
//! it and prints the report; a test that walks the table covers a new
//! row by its being added. Tier parameters are private constants beside
//! each campaign function. The per-cell engines the campaigns call
//! ([`crate::run_trace`], [`crate::run_interleaving`], …) are the
//! oracles and stay public on their own.

use std::path::{Path, PathBuf};

use crate::fuzz::{workload_by_name, workloads, Failure, TraceFailure, Workload};
use crate::ops::{generate_trace, parse_op, Op};

/// How hard a campaign runs: the CI smoke tier or the acceptance tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    Quick,
    Full,
}

impl Tier {
    pub fn name(self) -> &'static str {
        self.pick("quick", "full")
    }

    /// The value a tier parameter takes in this tier.
    pub(crate) fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Tier::Quick => quick,
            Tier::Full => full,
        }
    }
}

/// What a campaign covered and what it found.
#[derive(Clone, Debug)]
pub struct Report {
    /// The summary line with a `{name}` hole per count (`{failures}` is
    /// the number of failures).
    shape: &'static str,
    /// Named counts, in the order first reported.
    pub counts: Vec<(&'static str, u64)>,
    /// Lines printed ahead of the summary (tables the counts cannot hold).
    pub notes: Vec<String>,
    /// Contract violations, rendered with what is needed to reproduce
    /// them; empty when the campaign held everywhere.
    pub failures: Vec<String>,
    /// The seeds in play.
    pub seeds: Vec<u64>,
}

impl Report {
    pub(crate) fn new(shape: &'static str, seeds: &[u64]) -> Report {
        Report {
            shape,
            counts: Vec::new(),
            notes: Vec::new(),
            failures: Vec::new(),
            seeds: seeds.to_vec(),
        }
    }

    /// Add `n` to the count called `name`.
    pub(crate) fn add(&mut self, name: &'static str, n: u64) {
        match self.counts.iter_mut().find(|(have, _)| *have == name) {
            Some((_, total)) => *total += n,
            None => self.counts.push((name, n)),
        }
    }

    /// The count called `name` (0 if the campaign never reported it).
    pub fn count(&self, name: &str) -> u64 {
        if name == "failures" {
            return self.failures.len() as u64;
        }
        self.counts
            .iter()
            .find(|(have, _)| *have == name)
            .map_or(0, |&(_, n)| n)
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The one-line summary: the campaign's shape with its counts filled in.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let mut rest = self.shape;
        while let Some((text, tail)) = rest.split_once('{') {
            let (name, tail) = tail.split_once('}').expect("shape braces pair up");
            out += text;
            out += &self.count(name).to_string();
            rest = tail;
        }
        out + rest
    }
}

/// One row of [`CAMPAIGNS`].
pub struct Campaign {
    pub name: &'static str,
    /// The command words that select the row: `soak --diskfull`.
    pub command: &'static str,
    /// The contract in a line.
    pub contract: &'static str,
    /// The seeds of each tier (quick, full) unless `--seed N` replaces
    /// them with `[N]`; a row with none cannot honour `--seed`.
    seeds: [&'static [u64]; 2],
    /// Whether `--runs N` (a number of interleavings) means anything.
    runs: bool,
    /// Whether the row spawns `natix serve` children and needs the path
    /// of the `natix` binary.
    pub server_bin: bool,
    run: fn(&Plan, &mut Progress) -> Report,
}

/// Where a campaign sends one line per cell, round or phase.
pub type Progress<'a> = dyn FnMut(&str) + 'a;

/// Grid campaigns: one fuzz seed at quick, two at full.
const GRID_SEEDS: [&[u64]; 2] = [&[1], &[1, 2]];

/// Every campaign there is, in the order ci.sh and the docs list them.
pub static CAMPAIGNS: [Campaign; 11] = [
    Campaign {
        name: "fuzz",
        command: "soak",
        contract: "a power cut (clean or torn) at every write event of every update step \
                   recovers to the pre- or post-step document, consistent and fsck-clean",
        seeds: GRID_SEEDS,
        runs: false,
        server_bin: false,
        run: grid,
    },
    Campaign {
        name: "corruption",
        command: "soak --corruption",
        contract: "bit rot in any page class of any committed state is detected or \
                   corrected, never read silently wrong; repair quarantines exactly the loss",
        seeds: GRID_SEEDS,
        runs: false,
        server_bin: false,
        run: grid,
    },
    Campaign {
        name: "group-commit",
        command: "soak --group-commit",
        contract: "a power cut inside a batch recovers to all of its acked commits or none",
        seeds: GRID_SEEDS,
        runs: false,
        server_bin: false,
        run: grid,
    },
    Campaign {
        name: "bulkload",
        command: "soak --bulkload",
        contract: "a power cut during a sharded bulkload leaves every shard recoverable \
                   and a catalog that names only committed segments",
        seeds: [&[], &[]],
        runs: false,
        server_bin: false,
        run: crate::bulk::bulkload,
    },
    Campaign {
        name: "diskfull",
        command: "soak --diskfull",
        contract: "a full disk at any write event rolls the commit back, keeps reads \
                   serving, refuses writes typed, and resumes when space returns",
        seeds: GRID_SEEDS,
        runs: false,
        server_bin: false,
        run: grid,
    },
    Campaign {
        name: "serve",
        command: "soak --serve",
        contract: "SIGKILL of `natix serve` mid-storm loses no acknowledged update",
        seeds: [&[0x50A4_0000 ^ 0x5EED]; 2],
        runs: false,
        server_bin: true,
        run: crate::net::serve_soak,
    },
    Campaign {
        name: "repl",
        command: "soak --repl",
        contract: "a standby promoted after SIGKILL of its primary holds an exact acked \
                   prefix, scrubs clean and fences the deposed primary",
        seeds: [&[0x4E50_11CA ^ 0x5EED]; 2],
        runs: false,
        server_bin: true,
        run: crate::repl::repl,
    },
    Campaign {
        name: "chaos",
        command: "stress",
        contract: "every seeded reader/writer/fsck interleaving reads its pinned epoch, \
                   commits exactly once and frees no pinned page",
        seeds: [&[0xC4A0_5EED]; 2],
        runs: true,
        server_bin: false,
        run: crate::chaos::chaos,
    },
    Campaign {
        name: "net",
        command: "stress --net",
        contract: "closed-loop client fleets see monotone epochs and one document per \
                   epoch; the server counts no protocol error",
        seeds: [&[0x5E17_E0AD]; 2],
        runs: false,
        server_bin: false,
        run: crate::net::net_load,
    },
    Campaign {
        name: "proxy",
        command: "stress --net --proxy",
        contract: "stalls, partial writes and mid-frame resets between fleet and daemon \
                   cause no protocol error, no wedged worker, no epoch regression",
        seeds: [&[0xFA_117]; 2],
        runs: false,
        server_bin: false,
        run: crate::proxy::proxy_chaos,
    },
    Campaign {
        name: "leak",
        command: "stress --net --leak",
        contract: "a client that pins the only slot and goes silent starves the others \
                   for at most one lease TTL",
        seeds: [&[0x0001_EA5E]; 2],
        runs: false,
        server_bin: false,
        run: crate::net::lease_leak,
    },
];

/// The row called `name`.
pub fn campaign(name: &str) -> Option<&'static Campaign> {
    CAMPAIGNS.iter().find(|c| c.name == name)
}

/// Whether `word` helps select a campaign of `verb` (`--net` for `stress`).
pub fn is_selector(verb: &str, word: &str) -> bool {
    CAMPAIGNS.iter().any(|c| {
        let mut words = c.command.split(' ');
        words.next() == Some(verb) && words.any(|w| w == word)
    })
}

/// The one row `verb` and the selector words given with it (each once,
/// in any order) name; anything else — two sweeps at once, `--proxy`
/// without `--net` — is a usage error.
pub fn select(verb: &str, selectors: &[&str]) -> Result<&'static Campaign, String> {
    let of_verb = || {
        CAMPAIGNS
            .iter()
            .filter(move |c| c.command.split(' ').next() == Some(verb))
    };
    of_verb()
        .find(|c| {
            let want: Vec<&str> = c.command.split(' ').skip(1).collect();
            want.len() == selectors.len() && want.iter().all(|w| selectors.contains(w))
        })
        .ok_or_else(|| {
            let commands: Vec<String> = of_verb().map(|c| format!("natix {}", c.command)).collect();
            format!(
                "natix {verb} {} is not one campaign; pick one of: {}",
                selectors.join(" "),
                commands.join(", ")
            )
        })
}

impl Campaign {
    /// One invocation of this row, or the flag it cannot honour.
    pub fn plan(
        &'static self,
        tier: Tier,
        seed: Option<u64>,
        runs: Option<usize>,
        server_bin: Option<PathBuf>,
    ) -> Result<Plan, String> {
        let refuse = |flag: &str| Err(format!("natix {} takes no {flag}", self.command));
        let seeds = self.seeds[tier.pick(0, 1)];
        if seed.is_some() && seeds.is_empty() {
            return refuse("--seed: it is not seeded");
        }
        if runs.is_some() && !self.runs {
            return refuse("--runs: it does not count interleavings");
        }
        if self.server_bin && server_bin.is_none() {
            return Err(format!(
                "natix {} spawns `natix serve` and needs the binary's path",
                self.command
            ));
        }
        Ok(Plan {
            row: self,
            tier,
            seeds: seed.map_or(seeds.to_vec(), |s| vec![s]),
            runs,
            server_bin,
        })
    }
}

/// One invocation of one row: what the campaign function is handed, and
/// what a replay banner is built from before it runs.
pub struct Plan {
    row: &'static Campaign,
    pub(crate) tier: Tier,
    /// The seeds in play (a campaign with one seed reads `seeds[0]`).
    pub seeds: Vec<u64>,
    pub(crate) runs: Option<usize>,
    pub(crate) server_bin: Option<PathBuf>,
}

impl Plan {
    /// Run the campaign; `progress` receives one line per cell, round or
    /// phase.
    pub fn run(&self, progress: &mut Progress) -> Report {
        (self.row.run)(self, progress)
    }

    /// What the summary line opens with: `soak (quick, corruption)`.
    pub fn title(&self) -> String {
        let mut words = self.row.command.split(' ');
        let verb = words.next().expect("a command has a verb");
        let mut title = format!("{verb} ({}", self.tier.name());
        for (i, word) in words.enumerate() {
            title += if i == 0 { ", " } else { " " };
            title += word.trim_start_matches("--");
        }
        title + ")"
    }

    /// The `natix` binary a row that spawns `natix serve` was planned with.
    pub(crate) fn server_bin(&self) -> &Path {
        self.server_bin.as_deref().expect("plan() checked it")
    }

    /// The command line that runs this plan again.
    pub fn rerun(&self) -> String {
        self.rerun_with(&self.seeds, self.runs)
    }

    /// The command line that runs this row at this tier with other seeds
    /// or another `--runs` (a single failing interleaving, say).
    pub(crate) fn rerun_with(&self, seeds: &[u64], runs: Option<usize>) -> String {
        let mut line = format!("natix {}", self.row.command);
        if self.tier == Tier::Quick {
            line += " --quick";
        }
        // Several seeds are a tier's own; one may have come from `--seed`.
        if let [seed] = seeds {
            line += &format!(" --seed {seed}");
        }
        if let Some(runs) = runs {
            line += &format!(" --runs {runs}");
        }
        line
    }
}

// ------------------------------------------------------ grid campaigns

/// Every grid campaign regenerates the Table 1 documents from this seed.
const GEN_SEED: u64 = 1;

/// A grid campaign stops after this many failures.
const MAX_FAILURES: usize = 3;

/// One tier of a grid campaign: a cell per workload × record limit ×
/// fuzz seed × batch size, each driving a trace of `ops_per_run` steps.
#[derive(Clone, Copy)]
pub(crate) struct Grid {
    pub scale: f64,
    pub ops_per_run: usize,
    pub record_limits: &'static [u64],
    /// `&[0]` for a campaign that does not batch.
    pub batch_sizes: &'static [usize],
}

/// What one clean cell adds to its row's report.
pub(crate) type Counts = Vec<(&'static str, u64)>;

/// A campaign that sweeps update traces over a [`Grid`]: its quick and
/// full grids, its summary shape, and what one cell runs at a tier —
/// its counts, or its failure rendered with the script that replays it.
pub(crate) struct GridRow {
    /// The [`CAMPAIGNS`] row, named in replay scripts.
    pub name: &'static str,
    pub grids: [Grid; 2],
    pub shape: &'static str,
    pub cell: fn(&Cell, Tier, &mut Progress) -> Result<Counts, String>,
}

/// Every grid row.
static GRID_ROWS: [&GridRow; 4] = [
    &crate::fuzz::FUZZ,
    &crate::fuzz::CORRUPTION,
    &crate::group::GROUP_COMMIT,
    &crate::exhaust::DISKFULL,
];

/// The campaign function of every grid row.
fn grid(plan: &Plan, progress: &mut Progress) -> Report {
    let row = GRID_ROWS
        .iter()
        .find(|r| r.name == plan.row.name)
        .expect("a grid row");
    sweep_grid(row, plan.tier, &plan.seeds, progress)
}

/// One cell of a [`Grid`].
pub(crate) struct Cell<'a> {
    pub row: &'static str,
    pub workload: &'a Workload,
    pub k: u64,
    pub fuzz_seed: u64,
    pub batch: usize,
    pub trace: Vec<Op>,
    /// `SigmodRecord.xml k=32 seed=1`, for progress and failure lines.
    pub at: String,
}

impl Cell<'_> {
    /// This cell failing with `f`, rendered with the script that replays
    /// it: `shrunk` if the caller shrank the trace, else the cell's own
    /// trace up to the failing step.
    pub fn failure(&self, f: TraceFailure, shrunk: Option<Vec<Op>>) -> String {
        let trace = shrunk.unwrap_or_else(|| {
            let mut upto = self.trace.clone();
            upto.truncate(f.step + 1);
            upto
        });
        Failure {
            row: self.row,
            workload: self.workload.name.clone(),
            scale: self.workload.scale,
            gen_seed: self.workload.gen_seed,
            k: self.k,
            batch: self.batch,
            fuzz_seed: self.fuzz_seed,
            step: f.step,
            fault: f.fault,
            message: f.message,
            trace,
        }
        .to_string()
    }
}

/// Derive the trace seed for one cell. Mixed so that every (workload,
/// record limit, fuzz seed) sees a distinct trace; deterministic across
/// processes.
fn trace_seed(fuzz_seed: u64, k: u64, workload_index: u64) -> u64 {
    fuzz_seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k.wrapping_mul(0x2545_f491_4f6c_dd1d))
        .wrapping_add(workload_index)
}

/// Run `row`'s cell over every cell of its `tier` grid × `seeds`, in
/// that nesting order. The report sums the counts under the row's
/// shape, and the sweep stops at [`MAX_FAILURES`].
pub(crate) fn sweep_grid(
    row: &GridRow,
    tier: Tier,
    seeds: &[u64],
    progress: &mut Progress,
) -> Report {
    let grid = tier.pick(row.grids[0], row.grids[1]);
    let mut report = Report::new(row.shape, seeds);
    'grid: for (wi, workload) in workloads(grid.scale, GEN_SEED).iter().enumerate() {
        for &k in grid.record_limits {
            for &fuzz_seed in seeds {
                for &batch in grid.batch_sizes {
                    let mut at = format!("{} k={k} seed={fuzz_seed}", workload.name);
                    if batch > 0 {
                        at += &format!(" batch={batch}");
                    }
                    let trace =
                        generate_trace(trace_seed(fuzz_seed, k, wi as u64), grid.ops_per_run);
                    let c = Cell {
                        row: row.name,
                        workload,
                        k,
                        fuzz_seed,
                        batch,
                        trace,
                        at,
                    };
                    report.add("runs", 1);
                    match (row.cell)(&c, tier, progress) {
                        Ok(counts) => {
                            let line: Vec<String> = counts
                                .iter()
                                .map(|(name, n)| format!("{n} {name}"))
                                .collect();
                            progress(&format!("ok   {}: {}", c.at, line.join(", ")));
                            for (name, n) in counts {
                                report.add(name, n);
                            }
                        }
                        Err(failure) => {
                            progress(&format!("FAIL {}", c.at));
                            report.failures.push(failure);
                            if report.failures.len() >= MAX_FAILURES {
                                break 'grid;
                            }
                        }
                    }
                }
            }
        }
    }
    report
}

/// Replay a script produced by [`Failure::script`]: regenerate the
/// workload and run the trace through one cell of the row the header
/// names, at the full tier (every write event swept). Blank lines and
/// `#` comments are ignored. Answers with the row's name and a one-run
/// report, or with the failure rendered as a grid campaign renders it.
pub fn replay(script: &str) -> Result<(&'static str, Report), String> {
    let mut lines = script
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    let header = lines.next().ok_or_else(|| "empty script".to_string())?;
    let toks: Vec<&str> = header.split_whitespace().collect();
    let row = GRID_ROWS
        .iter()
        .find(|r| toks.first() == Some(&r.name))
        .ok_or_else(|| {
            let rows: Vec<&str> = GRID_ROWS.iter().map(|r| r.name).collect();
            format!(
                "bad header `{header}` (want `<row> workload <name> scale <s> gen-seed <g> \
                 k <k>`, plus `batch <n>` for group-commit; <row> is one of {})",
                rows.join(", ")
            )
        })?;
    let trace = lines.map(parse_op).collect::<Result<Vec<_>, _>>()?;
    let name: String = header_field(&toks, "workload")?;
    let workload = workload_by_name(
        &name,
        header_field(&toks, "scale")?,
        header_field(&toks, "gen-seed")?,
    )
    .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let cell = Cell {
        row: row.name,
        workload: &workload,
        k: header_field(&toks, "k")?,
        fuzz_seed: 0,
        batch: match row.name {
            "group-commit" => header_field(&toks, "batch")?,
            _ => 0,
        },
        trace,
        at: header.to_string(),
    };
    let mut report = Report::new(row.shape, &[]);
    report.add("runs", 1);
    for (name, n) in (row.cell)(&cell, Tier::Full, &mut |_| {})? {
        report.add(name, n);
    }
    Ok((row.name, report))
}

/// The value after `key` in a script header.
fn header_field<T: std::str::FromStr>(toks: &[&str], key: &str) -> Result<T, String> {
    let value = toks
        .iter()
        .position(|t| *t == key)
        .and_then(|i| toks.get(i + 1))
        .ok_or_else(|| format!("the script header has no `{key}`"))?;
    value
        .parse()
        .map_err(|_| format!("bad {key} `{value}` in the script header"))
}

/// A fresh, empty directory under the system's temporary one, named for
/// `tag` and this process.
pub(crate) fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("natix-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_fills_the_shape_and_counts_what_is_missing_as_zero() {
        let mut r = Report::new(
            "{runs} runs ({ops} ops, {skipped} skipped), {failures} failure(s)",
            &[7],
        );
        r.add("runs", 1);
        r.add("ops", 5);
        r.add("runs", 1);
        r.failures.push("boom".into());
        assert_eq!(r.summary(), "2 runs (5 ops, 0 skipped), 1 failure(s)");
        assert_eq!(r.count("ops"), 5);
        assert!(!r.ok());
    }

    #[test]
    fn every_row_is_selected_by_its_own_command_words_and_no_other() {
        for row in &CAMPAIGNS {
            let mut words = row.command.split(' ');
            let verb = words.next().unwrap();
            let mut selectors: Vec<&str> = words.collect();
            selectors.reverse();
            assert!(selectors.iter().all(|w| is_selector(verb, w)));
            assert_eq!(select(verb, &selectors).unwrap().name, row.name);
            assert_eq!(campaign(row.name).unwrap().command, row.command);
        }
        assert!(select("soak", &["--corruption", "--diskfull"]).is_err());
        assert!(select("stress", &["--proxy"]).is_err());
        assert!(select("stress", &["--net", "--proxy", "--leak"]).is_err());
        assert!(!is_selector("soak", "--net"));
    }

    #[test]
    fn a_row_refuses_the_flag_it_cannot_honour_and_names_itself() {
        let bulk = campaign("bulkload").unwrap();
        let e = bulk.plan(Tier::Quick, Some(3), None, None).err().unwrap();
        assert!(
            e.contains("natix soak --bulkload") && e.contains("--seed"),
            "{e}"
        );
        let e = campaign("fuzz")
            .unwrap()
            .plan(Tier::Full, None, Some(2), None)
            .err()
            .unwrap();
        assert!(e.contains("natix soak takes no --runs"), "{e}");
        assert!(campaign("serve")
            .unwrap()
            .plan(Tier::Quick, None, None, None)
            .is_err());
    }

    #[test]
    fn rerun_lines_and_titles_come_from_the_command_words() {
        let plan = |name: &str, tier, seed, runs| {
            campaign(name)
                .unwrap()
                .plan(tier, seed, runs, None)
                .unwrap()
        };
        let p = plan("proxy", Tier::Quick, None, None);
        assert_eq!(p.title(), "stress (quick, net proxy)");
        assert_eq!(
            p.rerun(),
            format!("natix stress --net --proxy --quick --seed {}", 0xFA_117)
        );
        let p = plan("fuzz", Tier::Full, None, None);
        assert_eq!(
            (p.title(), p.rerun()),
            ("soak (full)".into(), "natix soak".into())
        );
        assert_eq!(p.seeds, [1, 2]);
        let p = plan("chaos", Tier::Full, Some(9), Some(4));
        assert_eq!(p.rerun(), "natix stress --seed 9 --runs 4");
        assert_eq!(
            plan("bulkload", Tier::Quick, None, None).rerun(),
            "natix soak --bulkload --quick"
        );
    }
}
