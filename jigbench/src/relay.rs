//! A loopback relay in front of a worker that counts the bytes crossing
//! it, so `dist-scatter` reports what the sweep really put on the wire
//! rather than a reconstruction of the frames.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Bytes relayed so far, per direction.
#[derive(Debug, Default)]
pub struct Tally {
    /// Driver → worker.
    pub sent: AtomicU64,
    /// Worker → driver.
    pub received: AtomicU64,
}

/// A relay listening on a loopback port and forwarding every connection
/// to `target`. Dropping it stops accepting and joins every thread.
pub struct Relay {
    pub addr: SocketAddr,
    pub tally: Arc<Tally>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    pumps: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Relay {
    pub fn start(target: SocketAddr) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let tally = Arc::new(Tally::default());
        let stop = Arc::new(AtomicBool::new(false));
        let pumps: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let acceptor = {
            let (tally, stop, pumps) = (Arc::clone(&tally), Arc::clone(&stop), Arc::clone(&pumps));
            std::thread::spawn(move || {
                for inbound in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let (Ok(inbound), Ok(outbound)) = (inbound, TcpStream::connect(target)) else {
                        continue;
                    };
                    let mut handles = pumps.lock().expect("relay pump list");
                    // Reap finished pumps so their stacks do not pile up.
                    let (done, running): (Vec<_>, Vec<_>) =
                        handles.drain(..).partition(JoinHandle::is_finished);
                    *handles = running;
                    for pump in done {
                        let _ = pump.join();
                    }
                    for (from, to, counter) in [
                        (inbound.try_clone(), outbound.try_clone(), Direction::Sent),
                        (outbound.try_clone(), inbound.try_clone(), Direction::Received),
                    ] {
                        if let (Ok(from), Ok(to)) = (from, to) {
                            let tally = Arc::clone(&tally);
                            handles
                                .push(std::thread::spawn(move || pump(from, to, &tally, counter)));
                        }
                    }
                }
            })
        };
        Ok(Self { addr, tally, stop, acceptor: Some(acceptor), pumps })
    }

    /// Bytes relayed in both directions so far.
    pub fn total(&self) -> u64 {
        self.tally.sent.load(Ordering::SeqCst) + self.tally.received.load(Ordering::SeqCst)
    }
}

#[derive(Clone, Copy)]
enum Direction {
    Sent,
    Received,
}

/// Copies `from` into `to` until `from` closes, counting the bytes, then
/// half-closes `to` so the peer sees the end of the stream.
fn pump(mut from: TcpStream, mut to: TcpStream, tally: &Tally, direction: Direction) {
    let counter = match direction {
        Direction::Sent => &tally.sent,
        Direction::Received => &tally.received,
    };
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
                counter.fetch_add(n as u64, Ordering::SeqCst);
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

impl Drop for Relay {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor: it re-checks the flag per connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for pump in self.pumps.lock().expect("relay pump list").drain(..) {
            let _ = pump.join();
        }
    }
}
