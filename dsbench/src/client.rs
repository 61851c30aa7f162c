//! A `dramscoped` child process on a unix socket, closed-loop client
//! connections to it, `/proc` readings of it, and the few response
//! fields the benchmark reads.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon. Dropping it kills and reaps the process; the
/// orderly way out is [`Daemon::shutdown`].
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `bin --workers 2 --socket <dir>/d.sock <extra...>` and
    /// waits until the socket accepts connections.
    pub fn spawn(bin: &Path, dir: &Path, extra: &[String]) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("d.sock");
        let child = Command::new(bin)
            .args(["--workers", "2", "--socket"])
            .arg(&socket)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if UnixStream::connect(&daemon.socket).is_ok() {
                return Ok(daemon);
            }
            if let Some(child) = daemon.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    daemon.child = None;
                    return Err(format!("dramscoped exited at start: {status}"));
                }
            }
            if Instant::now() > deadline {
                return Err("dramscoped socket never came up".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream = UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("connect: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            next_id: 0,
        })
    }

    /// Sends `shutdown` on a fresh connection (every other connection
    /// must be closed first) and reaps the process.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        let ack = conn.call("{\"req\":\"shutdown\"}")?;
        if !ack.contains("\"drained\":true") {
            return Err(format!("shutdown not acknowledged: {ack}"));
        }
        drop(conn);
        let status = self
            .child
            .take()
            .ok_or("daemon already reaped")?
            .wait()
            .map_err(|e| format!("waiting for dramscoped: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("dramscoped exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection: a request line out, its response line back.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    next_id: u64,
}

impl Conn {
    /// Sends one request object (without an `id`; one is added) and
    /// returns its response line.
    pub fn call(&mut self, request: &str) -> Result<String, String> {
        self.next_id += 1;
        let body = request
            .strip_prefix('{')
            .ok_or_else(|| format!("request is not an object: {request}"))?;
        let line = format!("{{\"id\":{},{body}\n", self.next_id);
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        if response.starts_with("{\"resp\":\"error\"") {
            return Err(format!("daemon answered an error: {}", response.trim_end()));
        }
        Ok(response)
    }
}

extern "C" {
    /// glibc's wrapper of the `sched_setaffinity` system call.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to the first CPU it may run on; threads and
/// processes it starts afterwards inherit the pin. Returns the CPU.
///
/// The closed-loop read workloads ping-pong between the client and the
/// daemon; left free, where the scheduler places the two sides moves
/// their throughput by up to half from run to run.
pub fn pin_to_first_cpu() -> Result<u32, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let cpu: u32 = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| list.trim().split([',', '-']).next()?.parse().ok())
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    if cpu >= 64 {
        return Err(format!("first allowed CPU {cpu} is beyond a one-word mask"));
    }
    let mask = [1u64 << cpu];
    // SAFETY: `mask` is a live, initialized buffer of exactly the size
    // passed; the kernel only reads it. pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// A `/proc/<pid>/status` field in kB (or a plain count, for
/// `Threads`).
pub fn proc_status_kb(pid: u32, key: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Memory maps of a process (lines of `/proc/<pid>/maps`).
pub fn maps_count(pid: u32) -> Option<u64> {
    let maps = std::fs::read_to_string(format!("/proc/{pid}/maps")).ok()?;
    Some(maps.lines().count() as u64)
}

/// The raw JSON token after the first `"key":` in `line` — a number,
/// `true`/`false`, or a string literal with its quotes.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    if let Some(body) = rest.strip_prefix('"') {
        let mut escaped = false;
        for (i, c) in body.char_indices() {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => return Some(&rest[..i + 2]),
                _ => {}
            }
        }
        return None;
    }
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

pub fn u64_field(line: &str, key: &str) -> Option<u64> {
    raw_field(line, key)?.parse().ok()
}

/// The unescaped value of the string field `key`.
pub fn str_field(line: &str, key: &str) -> Option<String> {
    let raw = raw_field(line, key)?;
    let body = raw.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'b' => out.push('\u{8}'),
            'f' => out.push('\u{c}'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
            }
            other => out.push(other),
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fields_of_a_response_line() {
        let line = r#"{"resp":"result","id":3,"cache":"hit","seed":7,"dossier":"a \"b\"\nc\\d"}"#;
        assert_eq!(str_field(line, "cache").as_deref(), Some("hit"));
        assert_eq!(u64_field(line, "seed"), Some(7));
        assert_eq!(str_field(line, "dossier").as_deref(), Some("a \"b\"\nc\\d"));
        assert_eq!(u64_field(line, "missing"), None);
    }
}
