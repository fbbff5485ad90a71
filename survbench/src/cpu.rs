//! CPU time read from `/proc`.
//!
//! Two readings: the whole process's user + system time
//! (`/proc/self/stat`, which keeps the time of threads that have
//! already exited), and the on-CPU time of the daemon's own threads
//! (`/proc/self/task/*/schedstat`, nanosecond resolution), split by
//! thread class. The daemon names its threads `survd-accept`,
//! `survd-worker-<i>` and `survd-batch`; the benchmark's client threads
//! carry other names, so their CPU is never charged to the daemon.

use std::io;
use std::path::Path;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed
/// at 100 by the Linux user-space ABI).
const TICKS_PER_S: f64 = 100.0;

/// User + system ticks from the text of a `/proc/<pid>/stat` file. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted after its last `)`.
fn stat_cpu_ticks(stat: &str) -> Result<u64, String> {
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("stat without a command name: {stat:?}"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name come field 3 (state) onward; utime and stime are
    // fields 14 and 15.
    let field = |i: usize| -> Result<u64, String> {
        fields
            .get(i - 3)
            .ok_or_else(|| format!("stat has no field {i}"))?
            .parse()
            .map_err(|e| format!("stat field {i}: {e}"))
    };
    Ok(field(14)? + field(15)?)
}

/// CPU time this process has used so far, ms, counting every thread it
/// ever ran.
pub fn process_cpu_ms() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    Ok(stat_cpu_ticks(&stat)? as f64 * 1e3 / TICKS_PER_S)
}

/// A daemon thread's job, from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadClass {
    /// Accepts connections.
    Accept,
    /// Reads requests, parses bodies and writes responses.
    Worker,
    /// Forms micro-batches and scores them.
    Batch,
}

/// The class of a thread named `comm`, or `None` for a thread that is
/// not the daemon's.
pub fn classify(comm: &str) -> Option<ThreadClass> {
    match comm.trim_end() {
        "survd-accept" => Some(ThreadClass::Accept),
        "survd-batch" => Some(ThreadClass::Batch),
        name if name.starts_with("survd-worker-") => Some(ThreadClass::Worker),
        _ => None,
    }
}

/// On-CPU nanoseconds from the text of a `schedstat` file (its first
/// field).
fn schedstat_ns(text: &str) -> Result<u64, String> {
    text.split_whitespace()
        .next()
        .ok_or_else(|| "empty schedstat".to_string())?
        .parse()
        .map_err(|e| format!("schedstat: {e}"))
}

/// On-CPU time of the daemon's threads, ns, by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonCpu {
    /// The accept thread.
    pub accept_ns: u64,
    /// Every worker thread.
    pub workers_ns: u64,
    /// The batch thread.
    pub batch_ns: u64,
}

impl DaemonCpu {
    /// All classes together.
    pub fn total_ns(&self) -> u64 {
        self.accept_ns + self.workers_ns + self.batch_ns
    }

    /// The time used between `earlier` and `self`.
    pub fn since(&self, earlier: &DaemonCpu) -> DaemonCpu {
        DaemonCpu {
            accept_ns: self.accept_ns.saturating_sub(earlier.accept_ns),
            workers_ns: self.workers_ns.saturating_sub(earlier.workers_ns),
            batch_ns: self.batch_ns.saturating_sub(earlier.batch_ns),
        }
    }
}

/// Whether a read failed because the thread has exited: its directory
/// is gone (`ENOENT`) or it died between open and read (`ESRCH`).
fn exited(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::NotFound || e.raw_os_error() == Some(3)
}

/// Sums the daemon threads' CPU over `tasks`, reading each task's
/// `comm` and `schedstat` through `read(task, file)`. A thread that
/// exits between the listing and either read is skipped: its time is
/// lost, which is why the daemon's threads must outlive a measured
/// window.
pub fn daemon_cpu_of<I, R>(tasks: I, read: R) -> Result<DaemonCpu, String>
where
    I: IntoIterator<Item = String>,
    R: Fn(&str, &str) -> io::Result<String>,
{
    let mut cpu = DaemonCpu::default();
    for task in tasks {
        let comm = match read(&task, "comm") {
            Ok(c) => c,
            Err(e) if exited(&e) => continue,
            Err(e) => return Err(format!("task {task} comm: {e}")),
        };
        let Some(class) = classify(&comm) else {
            continue;
        };
        let ns = match read(&task, "schedstat") {
            Ok(text) => schedstat_ns(&text).map_err(|e| format!("task {task}: {e}"))?,
            Err(e) if exited(&e) => continue,
            Err(e) => return Err(format!("task {task} schedstat: {e}")),
        };
        match class {
            ThreadClass::Accept => cpu.accept_ns += ns,
            ThreadClass::Worker => cpu.workers_ns += ns,
            ThreadClass::Batch => cpu.batch_ns += ns,
        }
    }
    Ok(cpu)
}

/// CPU the daemon threads of this process have used so far.
pub fn daemon_cpu() -> Result<DaemonCpu, String> {
    let dir = Path::new("/proc/self/task");
    let tasks: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .collect();
    daemon_cpu_of(tasks, |task, file| {
        std::fs::read_to_string(dir.join(task).join(file))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn stat_times_are_read_after_the_command_name() {
        // A name with a space and a ')' must not shift the fields.
        let stat = "4242 (survd (x) 1) S 1 4242 4242 0 -1 4194560 917 0 0 0 \
                    250 37 0 0 20 0 6 0 1234 5000000 900 18446744073709551615";
        assert_eq!(stat_cpu_ticks(stat), Ok(287));
        assert!(stat_cpu_ticks("4242 (x) S 1 2").is_err());
        assert!(stat_cpu_ticks("no name here").is_err());
    }

    #[test]
    fn threads_are_classified_by_name() {
        assert_eq!(classify("survd-accept\n"), Some(ThreadClass::Accept));
        assert_eq!(classify("survd-worker-3\n"), Some(ThreadClass::Worker));
        assert_eq!(classify("survd-batch\n"), Some(ThreadClass::Batch));
        assert_eq!(classify("survbench\n"), None);
        assert_eq!(classify("survd-workerX"), None);
    }

    /// A `/proc/self/task` stand-in, one `tid|comm|schedstat` line per
    /// task. A field `-` is a file that is gone (`ENOENT`); `!N` is a
    /// read that fails with OS error `N`.
    struct Tasks(BTreeMap<(String, &'static str), String>, Vec<String>);

    impl Tasks {
        fn parse(table: &str) -> Tasks {
            let mut files = BTreeMap::new();
            let mut tids = Vec::new();
            for line in table.lines().map(str::trim).filter(|l| !l.is_empty()) {
                let fields: Vec<&str> = line.split('|').collect();
                tids.push(fields[0].to_string());
                for (file, text) in ["comm", "schedstat"].into_iter().zip(&fields[1..]) {
                    if *text != "-" {
                        files.insert((fields[0].to_string(), file), format!("{text}\n"));
                    }
                }
            }
            Tasks(files, tids)
        }

        fn read(&self) -> Result<DaemonCpu, String> {
            daemon_cpu_of(self.1.clone(), |task, file| {
                match self.0.get(&(task.to_string(), file)) {
                    None => Err(io::Error::from_raw_os_error(2)),
                    Some(text) => match text.trim().strip_prefix('!') {
                        Some(code) => Err(io::Error::from_raw_os_error(
                            code.parse().expect("an OS error code"),
                        )),
                        None => Ok(text.clone()),
                    },
                }
            })
        }
    }

    #[test]
    fn daemon_time_is_split_by_class_and_clients_are_excluded() {
        let cpu = Tasks::parse(
            "100|survbench|999 0 1
             101|survd-accept|10 5 2
             102|survd-worker-0|200 0 9
             103|survd-worker-1|300 0 9
             104|survd-batch|4000 1 1",
        )
        .read()
        .expect("reads");
        let expect = |accept_ns, workers_ns, batch_ns| DaemonCpu {
            accept_ns,
            workers_ns,
            batch_ns,
        };
        assert_eq!(cpu, expect(10, 500, 4000));
        assert_eq!(cpu.total_ns(), 4510);
        assert_eq!(expect(15, 800, 4100).since(&cpu), expect(5, 300, 100));
    }

    #[test]
    fn a_thread_that_exits_mid_read_is_skipped() {
        // 200: listed, then gone before its name was read. 201: name
        // read, then gone before its schedstat was opened. 202: name
        // read, schedstat opened, then the thread died (ESRCH).
        let cpu = Tasks::parse(
            "200|-|-
             201|survd-worker-0|-
             202|survd-worker-1|!3
             203|survd-batch|70 0 1",
        )
        .read()
        .expect("exits are not errors");
        assert_eq!(
            cpu,
            DaemonCpu {
                accept_ns: 0,
                workers_ns: 0,
                batch_ns: 70
            }
        );
    }

    #[test]
    fn other_read_errors_and_garbage_fail() {
        // EACCES is not an exit.
        assert!(Tasks::parse("300|survd-batch|!13").read().is_err());
        assert!(Tasks::parse("301|!13|1 2 3").read().is_err());
        assert!(Tasks::parse("302|survd-batch|x y z").read().is_err());
    }

    #[test]
    fn this_process_can_be_read() {
        assert!(process_cpu_ms().expect("readable") >= 0.0);
        let spawned = std::thread::Builder::new()
            .name("survd-batch".into())
            .spawn(|| {
                // Burn a little CPU so the thread has a nonzero time.
                let mut x = 0u64;
                for i in 0..2_000_000u64 {
                    x = std::hint::black_box(x.wrapping_add(i * i));
                }
                daemon_cpu().expect("readable")
            })
            .expect("spawn");
        let seen = spawned.join().expect("thread ran");
        assert!(seen.batch_ns > 0, "{seen:?}");
    }
}
