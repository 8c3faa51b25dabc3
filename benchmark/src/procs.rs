//! Process hygiene: spawning `d2-node`, reaping it on every exit path,
//! the wall-clock watchdog, and `/proc` readers.
//!
//! Every child lives in one process-wide registry. [`reap_all`] kills
//! and waits for whatever is still in it; it runs when a [`Nodes`]
//! handle drops (normal return and unwinding), from the panic hook, and
//! from the watchdog before it exits the process — so no path leaves a
//! `d2-node` behind.

use std::fs;
use std::io;
use std::net::SocketAddrV4;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static CHILDREN: Mutex<Vec<Child>> = Mutex::new(Vec::new());

/// Kills and reaps every registered child whose pid `select` accepts.
fn reap(select: impl Fn(u32) -> bool) {
    let mut children = match CHILDREN.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    let (mut doomed, kept): (Vec<Child>, Vec<Child>) =
        children.drain(..).partition(|c| select(c.id()));
    *children = kept;
    for c in doomed.iter_mut() {
        let _ = c.kill();
    }
    for c in doomed.iter_mut() {
        let _ = c.wait();
    }
}

/// Kills and reaps every child still registered.
pub fn reap_all() {
    reap(|_| true);
}

/// Installs the panic hook and starts the watchdog: after `cap` the
/// process reaps its children and exits with status 3. A run that
/// finishes in time simply exits first.
pub fn install_guards(cap: Duration) {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        reap_all();
        default_hook(info);
    }));
    // Detached on purpose: it must outlive every other thread, and the
    // process exit ends it.
    std::thread::spawn(move || {
        std::thread::sleep(cap);
        eprintln!("d2-bench: wall-clock cap of {cap:?} exceeded, aborting");
        reap_all();
        std::process::exit(3);
    });
}

/// Directory for this run's files (node stdout/stderr, `trace.jsonl`):
/// `bench-tmp/run-<pid>-<tag>` next to the running executable, which is
/// inside the build directory and so inside the checkout.
pub fn run_dir(tag: &str) -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let base = exe.parent().unwrap_or(Path::new(".")).join("bench-tmp");
    let dir = base.join(format!("run-{}-{tag}", std::process::id()));
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The `d2-node` binary: next to this executable (test binaries live
/// one level down, in `deps/`).
pub fn node_binary() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let mut dir = exe.parent();
    for _ in 0..2 {
        if let Some(d) = dir {
            let candidate = d.join("d2-node");
            if candidate.is_file() {
                return Ok(candidate);
            }
            dir = d.parent();
        }
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        format!(
            "d2-node not found beside {}; build it with \
             `cargo build --release --manifest-path benchmark/Cargo.toml -p d2-net --bin d2-node`",
            exe.display()
        ),
    ))
}

/// A group of spawned `d2-node` processes. Dropping it stops them.
pub struct Nodes {
    /// OS process ids, in spawn order.
    pub pids: Vec<u32>,
    /// The address clients enter through (the first node's).
    pub entry: SocketAddrV4,
    dir: PathBuf,
}

impl Nodes {
    /// An empty group logging into `dir`.
    fn new(dir: &Path) -> Nodes {
        Nodes {
            pids: Vec::new(),
            entry: SocketAddrV4::new(std::net::Ipv4Addr::LOCALHOST, 0),
            dir: dir.to_path_buf(),
        }
    }

    /// Spawns `d2-node <args>` with stdout/stderr in the run directory
    /// and waits (until `deadline`) for its `LISTEN ip:port` banner.
    /// Returns the address and the path of the stdout log.
    fn spawn(
        &mut self,
        bin: &Path,
        args: &[&str],
        deadline: Instant,
    ) -> io::Result<(SocketAddrV4, PathBuf)> {
        let stem = format!("node{}", self.pids.len());
        let out_path = self.dir.join(format!("{stem}.out"));
        let child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(fs::File::create(&out_path)?)
            .stderr(fs::File::create(self.dir.join(format!("{stem}.err")))?)
            .spawn()?;
        self.pids.push(child.id());
        CHILDREN.lock().expect("child registry").push(child);
        let banner = wait_for_line(&out_path, "LISTEN ", deadline)?;
        let addr = banner["LISTEN ".len()..]
            .trim()
            .parse()
            .map_err(|_| io::Error::other(format!("bad LISTEN banner {banner:?}")))?;
        Ok((addr, out_path))
    }

    /// Three `d2-node serve` processes at ring positions 0.01 / 0.5 /
    /// 0.8333 with two replicas, on OS-assigned ports.
    pub fn ring3(dir: &Path, deadline: Instant) -> io::Result<Nodes> {
        let bin = node_binary()?;
        let mut nodes = Nodes::new(dir);
        for (i, pos) in ["0.01", "0.5", "0.8333"].into_iter().enumerate() {
            let seed = nodes.entry.to_string();
            let mut args = vec![
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--pos",
                pos,
                "--replicas",
                "2",
            ];
            if i > 0 {
                args.extend(["--seed", &seed]);
            }
            let (addr, _) = nodes.spawn(&bin, &args, deadline)?;
            if i == 0 {
                nodes.entry = addr;
            }
        }
        Ok(nodes)
    }

    /// One lone `d2-node serve` (the idle peer of the ping probe).
    pub fn single(dir: &Path, deadline: Instant) -> io::Result<Nodes> {
        let bin = node_binary()?;
        let mut nodes = Nodes::new(dir);
        let args = [
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--pos",
            "0.5",
            "--replicas",
            "1",
        ];
        nodes.entry = nodes.spawn(&bin, &args, deadline)?.0;
        Ok(nodes)
    }

    /// One `d2-node serve-many --nodes n --replicas 3` process; returns
    /// once it has printed `STABLE`. Its transport counters go to
    /// [`Nodes::obs_path`] once a second.
    pub fn many(dir: &Path, n: usize, deadline: Instant) -> io::Result<Nodes> {
        let bin = node_binary()?;
        let mut nodes = Nodes::new(dir);
        let obs = nodes.obs_path();
        let _ = fs::remove_file(&obs);
        let (n, obs) = (n.to_string(), obs.to_string_lossy().into_owned());
        let args = [
            "serve-many",
            "--nodes",
            &n,
            "--port",
            "0",
            "--replicas",
            "3",
            "--obs-out",
            &obs,
        ];
        let (addr, out) = nodes.spawn(&bin, &args, deadline)?;
        nodes.entry = addr;
        wait_for_line(&out, "STABLE", deadline)?;
        Ok(nodes)
    }

    /// Where `serve-many` appends its once-a-second metric snapshots.
    pub fn obs_path(&self) -> PathBuf {
        self.dir.join("many-obs.jsonl")
    }

    /// Sum of the processes' peak resident set sizes, MiB.
    pub fn rss_peak_mb(&self) -> f64 {
        self.pids.iter().map(|&p| vm_hwm_mb(p)).sum()
    }

    /// Sum of the processes' CPU time so far, milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        self.pids.iter().map(|&p| cpu_ms(p)).sum()
    }
}

impl Drop for Nodes {
    fn drop(&mut self) {
        reap(|pid| self.pids.contains(&pid));
    }
}

/// Polls `path` until a line starting with `prefix` appears.
fn wait_for_line(path: &Path, prefix: &str, deadline: Instant) -> io::Result<String> {
    loop {
        if let Ok(text) = fs::read_to_string(path) {
            if let Some(line) = text.lines().find(|l| l.starts_with(prefix)) {
                return Ok(line.to_string());
            }
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "no {prefix:?} line in {} before the set-up cap",
                    path.display()
                ),
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Peak resident set size (`VmHWM`) of `pid` in MiB; 0 if unreadable.
pub fn vm_hwm_mb(pid: u32) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of `pid` so far in milliseconds, from
/// `/proc/<pid>/stat` (clock ticks are 10 ms on every Linux this runs
/// on); 0 if unreadable.
pub fn cpu_ms(pid: u32) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 1..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(0.0, |ticks| ticks * 10.0)
}
