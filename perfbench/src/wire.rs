//! The live daemon and a one-request-at-a-time wire client.

use enq_net::{decode_frame, Frame};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

/// Model id every workload serves: `enqd`'s default `--model`.
pub const MODEL_ID: &str = "default";

/// A running `enqd`, warm-booted from a model directory. Dropping it kills
/// and reaps the process, so no run leaves a daemon behind.
pub struct Daemon {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Spawns `enqd --model-dir DIR` at its defaults and waits for
    /// `ENQD LISTENING`. A boot that trains instead of restoring the
    /// artifact (`ENQD COLDBOOT`) is refused: it would serve another model.
    pub fn spawn(enqd: &Path, model_dir: &Path) -> Result<Self, String> {
        let mut child = Command::new(enqd)
            .args(["--addr", "127.0.0.1:0", "--model-dir"])
            .arg(model_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", enqd.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Self {
            child: Some(child),
            stdout,
            addr: String::new(),
        };
        let mut warm = false;
        loop {
            let line = daemon
                .next_line()?
                .ok_or("enqd exited before ENQD LISTENING")?;
            if line.starts_with("ENQD WARMBOOT models=1 ") {
                warm = true;
            } else if let Some(addr) = line.strip_prefix("ENQD LISTENING ") {
                if !warm {
                    return Err("enqd did not warm-boot from the artifact".into());
                }
                daemon.addr = addr.trim().to_string();
                return Ok(daemon);
            }
        }
    }

    fn next_line(&mut self) -> Result<Option<String>, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) => Ok(Some(line)),
            Err(e) => Err(format!("reading enqd stdout: {e}")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon is running").id()
    }

    /// Drains the daemon with a `Drain` control frame, waits for it to exit
    /// and returns `served=` from its `ENQD DRAINED` line. Fails unless the
    /// exit status is 0.
    pub fn drain(mut self) -> Result<u64, String> {
        let mut conn = Conn::connect(&self.addr)?;
        conn.send(&Frame::Drain.encode())?;
        match conn.recv()? {
            Frame::DrainAck => {}
            other => return Err(format!("drain answered with {other:?}")),
        }
        let mut served = None;
        while let Some(line) = self.next_line()? {
            if let Some(rest) = line.strip_prefix("ENQD DRAINED served=") {
                let count = rest.split_whitespace().next().unwrap_or("");
                served = Some(count.parse::<u64>().map_err(|e| format!("{line:?}: {e}"))?);
            }
        }
        let status = self
            .child
            .take()
            .expect("daemon is running")
            .wait()
            .map_err(|e| format!("waiting for enqd: {e}"))?;
        if !status.success() {
            return Err(format!("enqd exited with {status}"));
        }
        served.ok_or_else(|| "enqd printed no ENQD DRAINED line".into())
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

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn vm_hwm_mib(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kib / 1024.0)
}

/// One client connection. Requests are sent once and never retried, so a
/// failure is counted, not hidden.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    read: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
            read: vec![0; 64 * 1024],
        })
    }

    pub fn send(&mut self, frame: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(frame)
            .map_err(|e| format!("sending a frame: {e}"))
    }

    pub fn recv(&mut self) -> Result<Frame, String> {
        loop {
            if let Some((frame, used)) =
                decode_frame(&self.buf).map_err(|e| format!("undecodable reply: {e}"))?
            {
                self.buf.drain(..used);
                return Ok(frame);
            }
            let n = self
                .stream
                .read(&mut self.read)
                .map_err(|e| format!("reading a reply: {e}"))?;
            if n == 0 {
                return Err("connection closed before the reply".into());
            }
            self.buf.extend_from_slice(&self.read[..n]);
        }
    }
}

/// Encodes an embed request for [`MODEL_ID`] into `out`.
pub fn encode_request(out: &mut Vec<u8>, id: u64, sample: &[f64]) {
    Frame::EmbedRequest {
        id,
        deadline_ms: 0,
        tenant: "perfbench".into(),
        model_id: MODEL_ID.into(),
        sample: sample.to_vec(),
    }
    .encode_into(out);
}

/// A successful reply, as the wire carried it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub label: usize,
    pub fidelity: f64,
    pub parameters: Vec<f64>,
    pub source: u8,
}

impl Reply {
    /// Bitwise equality (fidelity and parameters compared as bit patterns).
    pub fn same_bits(&self, other: &Reply) -> bool {
        self.label == other.label
            && self.fidelity.to_bits() == other.fidelity.to_bits()
            && self.parameters.len() == other.parameters.len()
            && self
                .parameters
                .iter()
                .zip(&other.parameters)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Reads a reply frame: `Ok(Some)` on an embed reply with the expected id,
/// `Ok(None)` on a typed error reply (a failed operation).
pub fn read_reply(conn: &mut Conn, id: u64) -> Result<Option<Reply>, String> {
    match conn.recv()? {
        Frame::EmbedReply {
            id: got,
            label,
            ideal_fidelity,
            parameters,
            source,
        } if got == id => Ok(Some(Reply {
            label: usize::try_from(label).map_err(|e| format!("label {label}: {e}"))?,
            fidelity: ideal_fidelity,
            parameters,
            source,
        })),
        Frame::ErrorReply {
            id: got,
            code,
            message,
            ..
        } if got == id => {
            eprintln!("request {id} failed: {code:?} {message}");
            Ok(None)
        }
        other => Err(format!("unexpected reply to request {id}: {other:?}")),
    }
}
