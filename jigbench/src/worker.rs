//! Worker processes for `dist-scatter`: this same executable, started
//! with `worker`, serves shard frames like the repository's
//! `jigsaw-worker` binary until a peer sends `Shutdown`.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use jigsaw_server::server::{serve, ServerConfig};
use jigsaw_server::Client;

/// `jigbench worker --spill DIR`: binds a loopback port, prints
/// `PORT=<n>`, and serves until shut down.
pub fn serve_main(args: &[String]) -> ExitCode {
    let spill = match args {
        [flag, dir] if flag == "--spill" => dir.clone(),
        _ => {
            eprintln!("usage: jigbench worker --spill DIR");
            return ExitCode::from(2);
        }
    };
    let handle = match serve(&ServerConfig::new(&spill).with_handlers(2)) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("jigbench worker: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("PORT={}", handle.addr().port());
    let _ = std::io::stdout().flush();
    handle.wait();
    let _ = std::fs::remove_dir_all(&spill);
    ExitCode::SUCCESS
}

/// A spawned worker process. Dropping it shuts the worker down and waits
/// for the process to end, killing it if it does not stop in time.
pub struct Worker {
    child: Child,
    pub addr: SocketAddr,
}

impl Worker {
    /// Starts a worker spilling under `spill` and waits for its port.
    pub fn spawn(spill: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
        let mut child = Command::new(exe)
            .arg("worker")
            .arg("--spill")
            .arg(spill)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn worker: {e}"))?;
        let mut line = String::new();
        let read = child.stdout.take().map(|out| BufReader::new(out).read_line(&mut line));
        let port = line.trim().strip_prefix("PORT=").and_then(|p| p.parse::<u16>().ok());
        match (read, port) {
            (Some(Ok(_)), Some(port)) => {
                Ok(Self { child, addr: SocketAddr::from(([127, 0, 0, 1], port)) })
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("worker printed {line:?}, expected PORT=<n>"))
            }
        }
    }

    /// The worker's metrics exposition.
    pub fn metrics(&self) -> Result<String, String> {
        Client::connect(self.addr)
            .map_err(|e| format!("connect to worker {}: {e}", self.addr))?
            .metrics()
            .map_err(|e| format!("worker {} metrics: {e}", self.addr))
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        if let Ok(mut client) = Client::connect(self.addr) {
            let _ = client.shutdown_server();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
