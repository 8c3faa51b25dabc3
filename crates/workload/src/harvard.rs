//! Harvard-like NFS workload generator (substitute for the EECS trace of
//! Ellard et al., FAST 2003 — see DESIGN.md §3).
//!
//! What the D2 evaluation depends on, and what this generator reproduces:
//!
//! - **Name-space locality of tasks**: each user works in a small set of
//!   home directories and walks between nearby directories, so the blocks
//!   a task touches are close in preorder path order.
//! - **Skewed file sizes**: Pareto-distributed, spanning four-plus orders
//!   of magnitude between mean and max (the traditional-file DHT's load
//!   balance suffers exactly because of this, Section 10).
//! - **Daily churn**: each simulated day writes 10–20% of the stored
//!   bytes and removes about as much (Table 3, Harvard rows).
//! - **Diurnal activity**: accesses concentrate in the 9 AM–6 PM window
//!   the paper samples its performance segments from.

use crate::namespace::{Access, FileId, FileOp, Namespace};
use d2_sim::SimTime;
use rand::Rng;

/// Tunables for the Harvard-like generator.
#[derive(Clone, Copy, Debug)]
pub struct HarvardConfig {
    /// Number of users (the paper's performance runs replay 83).
    pub users: usize,
    /// Trace length in days.
    pub days: f64,
    /// Target initial volume size in bytes.
    pub initial_bytes: u64,
    /// Mean read operations per user per active hour.
    pub reads_per_user_hour: f64,
    /// Daily written bytes as a fraction of stored bytes (Table 3:
    /// 0.10–0.20).
    pub daily_write_ratio: f64,
    /// Daily removed bytes as a fraction of stored bytes (Table 3:
    /// 0.10–0.22).
    pub daily_remove_ratio: f64,
    /// Directories per user home.
    pub dirs_per_user: usize,
    /// Mean files per directory.
    pub files_per_dir: f64,
    /// Probability a read burst jumps to a different directory.
    pub dir_jump_prob: f64,
    /// Probability an access goes to the shared subtree instead of the
    /// user's home.
    pub shared_prob: f64,
}

impl Default for HarvardConfig {
    fn default() -> Self {
        HarvardConfig {
            users: 40,
            days: 7.0,
            initial_bytes: 2 << 30, // 2 GiB scaled-down volume
            reads_per_user_hour: 120.0,
            daily_write_ratio: 0.15,
            daily_remove_ratio: 0.14,
            dirs_per_user: 12,
            files_per_dir: 14.0,
            dir_jump_prob: 0.25,
            shared_prob: 0.1,
        }
    }
}

/// A generated Harvard-like trace.
#[derive(Clone, Debug)]
pub struct HarvardTrace {
    /// The (evolving) name space.
    pub namespace: Namespace,
    /// Time-ordered accesses.
    pub accesses: Vec<Access>,
    /// Configuration used.
    pub config: HarvardConfig,
}

/// Pareto file size: minimum 4 KB, shape chosen so sizes span ~4 orders
/// of magnitude (median ≈ 8 KB, mean ≈ 60 KB, max capped at 512 MB —
/// the Harvard trace's mean-to-max gap that wrecks the traditional-file
/// DHT's balance in Section 10).
pub fn pareto_size<R: Rng + ?Sized>(rng: &mut R) -> u64 {
    let alpha = 1.15;
    let min = 4096.0;
    let u: f64 = rng.random::<f64>().max(1e-12);
    let size = min / u.powf(1.0 / alpha);
    size.min(512.0 * 1024.0 * 1024.0) as u64
}

/// Diurnal activity multiplier: near 1.0 during 9 AM–6 PM, low at night.
pub fn diurnal(hour_of_day: f64) -> f64 {
    if (9.0..18.0).contains(&hour_of_day) {
        1.0
    } else if (7.0..9.0).contains(&hour_of_day) || (18.0..22.0).contains(&hour_of_day) {
        0.35
    } else {
        0.06
    }
}

impl HarvardTrace {
    /// Generates a trace.
    pub fn generate<R: Rng + ?Sized>(cfg: &HarvardConfig, rng: &mut R) -> HarvardTrace {
        let mut ns = Namespace::new("harvard");
        let mut user_files: Vec<Vec<FileId>> = vec![Vec::new(); cfg.users];
        let mut user_dirs: Vec<Vec<usize>> = vec![Vec::new(); cfg.users];
        let mut shared_files: Vec<FileId> = Vec::new();

        // ---- initial population -------------------------------------------------
        let per_user = cfg.initial_bytes / (cfg.users as u64 + 1);
        for u in 0..cfg.users {
            for d in 0..cfg.dirs_per_user {
                let depth2 = d % 3;
                let dir_path = if depth2 == 0 {
                    format!("/home/u{u}/d{d}")
                } else {
                    format!("/home/u{u}/proj{}/d{d}", d % 4)
                };
                user_dirs[u].push(ns.ensure_dir(&dir_path));
            }
            // Fill the user's directories until the byte budget is met,
            // with per-directory file counts jittered around the mean.
            let mut bytes = 0u64;
            let mut fno = 0usize;
            let mut dir_order: Vec<usize> = (0..user_dirs[u].len()).collect();
            while bytes < per_user && fno < 100_000 {
                let di = dir_order[fno % dir_order.len()];
                // Occasionally reshuffle emphasis so directories differ in
                // file count.
                if fno.is_multiple_of(7) {
                    let a = rng.random_range(0..dir_order.len());
                    let b = rng.random_range(0..dir_order.len());
                    dir_order.swap(a, b);
                }
                let dir = user_dirs[u][di];
                let size = pareto_size(rng);
                let id = ns.create_file(dir, &format!("f{fno}.dat"), size, SimTime::ZERO);
                user_files[u].push(id);
                bytes += size;
                fno += 1;
            }
            let _ = cfg.files_per_dir;
        }
        // Shared subtree (binaries / libraries).
        let shared_dir = ns.ensure_dir("/usr/share");
        for f in 0..(4 * cfg.files_per_dir as usize) {
            let size = pareto_size(rng);
            shared_files.push(ns.create_file(
                shared_dir,
                &format!("lib{f}.so"),
                size,
                SimTime::ZERO,
            ));
        }

        // ---- access stream ------------------------------------------------------
        let mut accesses: Vec<Access> = Vec::new();
        let horizon = cfg.days * 86_400.0;

        // Reads: per-user bursty process with directory locality.
        for u in 0..cfg.users {
            let mut t = rng.random::<f64>() * 600.0;
            let mut locus = user_dirs[u][rng.random_range(0..user_dirs[u].len())];
            while t < horizon {
                let hour = (t / 3600.0) % 24.0;
                let rate = cfg.reads_per_user_hour * diurnal(hour) / 3600.0;
                if rng.random::<f64>() >= rate.min(1.0) * 12.0 {
                    // No burst in this 12 s slot.
                    t += 12.0;
                    continue;
                }
                // A burst: 2–30 accesses with sub-second to few-second gaps.
                if rng.random::<f64>() < cfg.dir_jump_prob {
                    locus = user_dirs[u][rng.random_range(0..user_dirs[u].len())];
                }
                let burst_len = 2 + rng.random_range(0..29);
                for _ in 0..burst_len {
                    let shared = rng.random::<f64>() < cfg.shared_prob;
                    let candidates: Vec<FileId> = if shared {
                        shared_files.clone()
                    } else {
                        user_files[u]
                            .iter()
                            .copied()
                            .filter(|id| ns.file(*id).dir() == locus)
                            .collect()
                    };
                    let pool = if candidates.is_empty() {
                        &user_files[u]
                    } else {
                        &candidates
                    };
                    if pool.is_empty() {
                        break;
                    }
                    let file = pool[rng.random_range(0..pool.len())];
                    if !ns.file(file).alive_at(SimTime::from_secs_f64(t)) {
                        continue;
                    }
                    let total = ns.file(file).data_blocks();
                    // Mostly whole-file sequential reads; sometimes partial.
                    let (first, n) = if total <= 8 || rng.random::<f64>() < 0.7 {
                        (1u64, total.min(u32::MAX as u64) as u32)
                    } else {
                        let first = 1 + rng.random_range(0..total);
                        let n = (1 + rng.random_range(0..8)).min((total - first + 1) as u32);
                        (first, n)
                    };
                    accesses.push(Access {
                        at: SimTime::from_secs_f64(t),
                        user: u as u32,
                        file,
                        op: FileOp::Read,
                        first_block: first,
                        nblocks: n,
                    });
                    // Intra-burst gaps stay below the 1 s think-time
                    // threshold so a burst forms one access group
                    // (Section 9.1).
                    t += 0.05 + rng.random::<f64>() * 0.7;
                }
                // Think time to the next burst.
                t += 20.0 + rng.random::<f64>() * 400.0;
            }
        }

        // Writes and removals: per-day byte budgets (Table 3 calibration).
        let mut live_bytes = ns.bytes_at(SimTime::ZERO);
        for day in 0..cfg.days.ceil() as usize {
            let day_start = day as f64 * 86_400.0;
            let mut write_budget = (cfg.daily_write_ratio * live_bytes as f64) as i64;
            let mut remove_budget = (cfg.daily_remove_ratio * live_bytes as f64) as i64;
            let mut write_attempts = 0;
            while write_budget > 0 {
                write_attempts += 1;
                if write_attempts > 200_000 {
                    break;
                }
                let u = rng.random_range(0..cfg.users);
                let t = day_start + 9.0 * 3600.0 + rng.random::<f64>() * 9.0 * 3600.0;
                if t >= horizon {
                    break;
                }
                let at = SimTime::from_secs_f64(t);
                if rng.random::<f64>() < 0.5 && !user_files[u].is_empty() {
                    // Overwrite an existing (alive) file. Skip files that
                    // would single-handedly blow through the remaining
                    // budget (a Pareto-tail giant would otherwise make one
                    // op the whole day's churn at small scales).
                    let file = user_files[u][rng.random_range(0..user_files[u].len())];
                    if !ns.file(file).alive_at(at) {
                        continue;
                    }
                    let size = ns.file(file).size;
                    if size as i64 > write_budget.saturating_mul(4) {
                        continue;
                    }
                    accesses.push(Access {
                        at,
                        user: u as u32,
                        file,
                        op: FileOp::Write,
                        first_block: 1,
                        nblocks: ns.file(file).data_blocks().min(u32::MAX as u64) as u32,
                    });
                    write_budget -= size as i64;
                } else {
                    // Create a new file, capped near the remaining budget.
                    let dir = user_dirs[u][rng.random_range(0..user_dirs[u].len())];
                    let size = pareto_size(rng).min((write_budget as u64).max(64 * 1024));
                    let name = format!("new{}_{}", day, accesses.len());
                    let file = ns.create_file(dir, &name, size, at);
                    user_files[u].push(file);
                    accesses.push(Access {
                        at,
                        user: u as u32,
                        file,
                        op: FileOp::Create,
                        first_block: 1,
                        nblocks: ns.file(file).data_blocks().min(u32::MAX as u64) as u32,
                    });
                    write_budget -= size as i64;
                    live_bytes += size;
                }
            }
            let mut attempts = 0;
            while remove_budget > 0 {
                attempts += 1;
                if attempts > 200_000 {
                    break; // nothing removable fits the remaining budget
                }
                let u = rng.random_range(0..cfg.users);
                if user_files[u].is_empty() {
                    continue;
                }
                let t = day_start + 9.0 * 3600.0 + rng.random::<f64>() * 9.0 * 3600.0;
                if t >= horizon {
                    break;
                }
                let at = SimTime::from_secs_f64(t);
                let pos = rng.random_range(0..user_files[u].len());
                let file = user_files[u][pos];
                if !ns.file(file).alive_at(at) || ns.file(file).created_at >= at {
                    continue;
                }
                let size = ns.file(file).size;
                if size as i64 > remove_budget.saturating_mul(4) {
                    continue;
                }
                ns.delete_file(file, at);
                user_files[u].swap_remove(pos);
                accesses.push(Access {
                    at,
                    user: u as u32,
                    file,
                    op: FileOp::Delete,
                    first_block: 0,
                    nblocks: 0,
                });
                remove_budget -= size as i64;
                live_bytes = live_bytes.saturating_sub(size);
            }
        }

        // Reads are generated before the day-budget write/delete pass, so a
        // read may postdate a deletion decided later; drop those (the real
        // trace never accesses dead files).
        accesses.retain(|a| match a.op {
            FileOp::Read | FileOp::Write => ns.file(a.file).alive_at(a.at),
            FileOp::Create | FileOp::Delete => true,
        });
        accesses.sort_by_key(|a| (a.at, a.user));
        HarvardTrace {
            namespace: ns,
            accesses,
            config: *cfg,
        }
    }

    /// Written bytes per day index (creates + overwrites).
    pub fn write_bytes_by_day(&self) -> Vec<u64> {
        self.bytes_by_day(|op| matches!(op, FileOp::Write | FileOp::Create))
    }

    /// Removed bytes per day index.
    pub fn removed_bytes_by_day(&self) -> Vec<u64> {
        let days = self.config.days.ceil() as usize;
        let mut out = vec![0u64; days];
        for a in &self.accesses {
            if a.op == FileOp::Delete {
                let day = (a.at.as_secs_f64() / 86_400.0) as usize;
                if day < days {
                    out[day] += self.namespace.file(a.file).size;
                }
            }
        }
        out
    }

    fn bytes_by_day(&self, pred: impl Fn(FileOp) -> bool) -> Vec<u64> {
        let days = self.config.days.ceil() as usize;
        let mut out = vec![0u64; days];
        for a in &self.accesses {
            if pred(a.op) {
                let day = (a.at.as_secs_f64() / 86_400.0) as usize;
                if day < days {
                    out[day] += self.namespace.file(a.file).size;
                }
            }
        }
        out
    }

    /// Stored bytes at the start of each day (the `T_i` of Table 3).
    pub fn stored_bytes_by_day(&self) -> Vec<u64> {
        let days = self.config.days.ceil() as usize;
        (0..days)
            .map(|d| {
                self.namespace
                    .bytes_at(SimTime::from_secs_f64(d as f64 * 86_400.0))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small() -> HarvardConfig {
        HarvardConfig {
            users: 8,
            days: 2.0,
            initial_bytes: 64 << 20,
            reads_per_user_hour: 60.0,
            ..HarvardConfig::default()
        }
    }

    #[test]
    fn trace_is_time_ordered() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let t = HarvardTrace::generate(&small(), &mut rng);
        assert!(!t.accesses.is_empty());
        for w in t.accesses.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn accesses_reference_live_files() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let t = HarvardTrace::generate(&small(), &mut rng);
        for a in &t.accesses {
            if a.op == FileOp::Read || a.op == FileOp::Write {
                assert!(
                    t.namespace.file(a.file).alive_at(a.at),
                    "access to dead file {:?}",
                    a.file
                );
            }
        }
    }

    #[test]
    fn daily_churn_matches_table3_band() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let cfg = HarvardConfig {
            days: 4.0,
            ..small()
        };
        let t = HarvardTrace::generate(&cfg, &mut rng);
        let writes = t.write_bytes_by_day();
        let stored = t.stored_bytes_by_day();
        for d in 0..3 {
            let ratio = writes[d] as f64 / stored[d].max(1) as f64;
            assert!(
                (0.05..0.45).contains(&ratio),
                "day {d} write ratio {ratio} outside Table 3 band"
            );
        }
    }

    #[test]
    fn file_sizes_span_orders_of_magnitude() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let sizes: Vec<u64> = (0..20_000).map(|_| pareto_size(&mut rng)).collect();
        let max = *sizes.iter().max().unwrap() as f64;
        let mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
        assert!(max / mean > 1e3, "max/mean = {}", max / mean);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = HarvardTrace::generate(&small(), &mut rand::rngs::StdRng::seed_from_u64(9));
        let b = HarvardTrace::generate(&small(), &mut rand::rngs::StdRng::seed_from_u64(9));
        assert_eq!(a.accesses.len(), b.accesses.len());
        assert_eq!(a.namespace.len(), b.namespace.len());
    }

    #[test]
    fn diurnal_shape() {
        assert_eq!(diurnal(12.0), 1.0);
        assert!(diurnal(3.0) < 0.1);
        assert!(diurnal(20.0) < diurnal(12.0));
    }

    #[test]
    fn reads_dominate_writes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let t = HarvardTrace::generate(&small(), &mut rng);
        let reads = t.accesses.iter().filter(|a| a.op == FileOp::Read).count();
        let writes = t.accesses.iter().filter(|a| a.op != FileOp::Read).count();
        assert!(reads > writes, "reads {reads} writes {writes}");
    }
}
