//! Driving the real program from outside: one child process per
//! one-shot request, or one `clockless serve --jobs 1` daemon over
//! stdio. At most one child is alive at a time.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use crate::workload::Request;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads child rusage through the 64-bit Linux wait4 ABI");

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which `ru_maxrss` (in kB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set size (`ru_maxrss`, kB) — the child's `VmHWM`.
    pub max_rss_kb: u64,
}

/// Reaps `child` with `wait4` so its peak RSS comes back with its
/// status. `std::process::Child::wait` offers no rusage.
fn reap(child: Child) -> std::io::Result<Exit> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable, correctly laid
        // out locals for the duration of the call; `pid` is our own
        // unreaped child, so no other process's status is consumed.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // The child is reaped; dropping the handle neither waits nor kills.
    drop(child);
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        code,
        max_rss_kb: usage.maxrss.max(0) as u64,
    })
}

/// The program under test.
#[derive(Debug, Clone)]
pub struct Program {
    /// The release binary.
    pub bin: PathBuf,
    /// Working directory of every child (the checkout root).
    pub cwd: PathBuf,
}

/// A resident `clockless serve --jobs 1` daemon on stdio. Dropping it
/// without [`Daemon::shutdown`] kills and reaps the child.
pub struct Daemon {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts the daemon.
    pub fn start(program: &Program) -> std::io::Result<Daemon> {
        let mut child = Command::new(&program.bin)
            .args(["serve", "--jobs", "1"])
            .current_dir(&program.cwd)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::with_capacity(1 << 16, child.stdout.take().expect("piped stdout"));
        Ok(Daemon {
            child: Some(child),
            stdin: Some(stdin),
            stdout,
        })
    }

    /// Writes one request line and reads one response line into `out`.
    pub fn call(&mut self, line: &[u8], out: &mut Vec<u8>) -> Result<(), String> {
        out.clear();
        let stdin = self.stdin.as_mut().expect("stdin open until shutdown");
        stdin
            .write_all(line)
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("daemon stdin: {e}"))?;
        match self.stdout.read_until(b'\n', out) {
            Ok(0) => Err("daemon closed its output".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("daemon stdout: {e}")),
        }
    }

    /// Asks the daemon to shut down and reaps it.
    pub fn shutdown(mut self) -> Result<Exit, String> {
        let mut ack = Vec::new();
        let asked = self.call(b"{\"id\":0,\"op\":\"shutdown\"}\n", &mut ack);
        self.stdin = None;
        let child = self.child.take().expect("child alive until shutdown");
        let exit = reap(child).map_err(|e| format!("reaping the daemon: {e}"))?;
        asked?;
        match exit.code {
            Some(0) => Ok(exit),
            other => Err(format!("daemon exited with {other:?}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stdin = None;
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Where requests go: a fresh child per request, or one daemon.
pub enum Session {
    /// One-shot: spawn, collect standard output, reap.
    Oneshot {
        /// The program.
        program: Program,
        /// Largest `ru_maxrss` seen so far, kB.
        max_rss_kb: u64,
    },
    /// A resident daemon.
    Serve(Daemon),
}

impl Session {
    /// Opens a session of the right kind.
    pub fn open(program: &Program, serve: bool) -> Result<Session, String> {
        if serve {
            Daemon::start(program)
                .map(Session::Serve)
                .map_err(|e| format!("starting the daemon: {e}"))
        } else {
            Ok(Session::Oneshot {
                program: program.clone(),
                max_rss_kb: 0,
            })
        }
    }

    /// Sends `request` and collects the complete response into `out`:
    /// the response line, or a child's whole standard output. A nonzero
    /// child exit is an error.
    pub fn send(&mut self, request: &Request, out: &mut Vec<u8>) -> Result<(), String> {
        match (self, request) {
            (Session::Serve(daemon), Request::Line(line)) => daemon.call(line.as_bytes(), out),
            (
                Session::Oneshot {
                    program,
                    max_rss_kb,
                },
                Request::Spawn(args),
            ) => {
                out.clear();
                let mut child = Command::new(&program.bin)
                    .args(args)
                    .current_dir(&program.cwd)
                    .stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::null())
                    .spawn()
                    .map_err(|e| format!("spawn: {e}"))?;
                let read = child.stdout.take().expect("piped stdout").read_to_end(out);
                let exit = reap(child).map_err(|e| format!("wait4: {e}"))?;
                read.map_err(|e| format!("child stdout: {e}"))?;
                *max_rss_kb = (*max_rss_kb).max(exit.max_rss_kb);
                match exit.code {
                    Some(0) => Ok(()),
                    other => Err(format!("child exited with {other:?}")),
                }
            }
            _ => Err("request kind does not match the session".into()),
        }
    }

    /// Ends the session and returns the program's peak RSS in kB.
    pub fn close(self) -> Result<u64, String> {
        match self {
            Session::Oneshot { max_rss_kb, .. } => Ok(max_rss_kb),
            Session::Serve(daemon) => daemon.shutdown().map(|e| e.max_rss_kb),
        }
    }
}
