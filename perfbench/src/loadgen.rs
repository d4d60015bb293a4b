//! Open-loop load generator with bounded concurrency.
//!
//! Request `i` is due at `start + i / rate`, whether or not earlier
//! requests have been answered. Each request uses a fresh connection
//! (as `chaos_client` does). At most `conns` requests are open at once:
//! when every sender is busy at a request's due time, the request is
//! sent late, and that wait is charged to its latency, which is always
//! measured from the due time. A sender that was idle before the due
//! time and still sent late measures the generator's own lateness.

use server::proto::{read_frame, write_frame};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request as the client saw it. Times are offsets from the start
/// of the schedule.
#[derive(Debug, Clone)]
pub struct Shot {
    pub index: usize,
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    /// The sender was idle before the due time, so `sent - due` is the
    /// generator's own lateness rather than a backlog.
    pub idle_at_due: bool,
    /// The response payload, or the transport error.
    pub response: Result<String, String>,
}

impl Shot {
    /// Due-to-answer latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// Send-to-answer latency in milliseconds (no schedule wait).
    pub fn service_ms(&self) -> f64 {
        self.done.saturating_sub(self.sent).as_secs_f64() * 1e3
    }

    /// Generator lateness in milliseconds, when it is attributable to the
    /// generator.
    pub fn late_ms(&self) -> Option<f64> {
        self.idle_at_due
            .then(|| self.sent.saturating_sub(self.due).as_secs_f64() * 1e3)
    }
}

/// One request/response exchange on a fresh connection.
pub fn exchange(addr: SocketAddr, payload: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let timeout = Some(Duration::from_secs(30));
    s.set_read_timeout(timeout).map_err(|e| e.to_string())?;
    s.set_write_timeout(timeout).map_err(|e| e.to_string())?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    write_frame(&mut s, payload).map_err(|e| format!("write: {e}"))?;
    read_frame(&mut s, usize::MAX).map_err(|e| format!("read: {e}"))
}

/// Send `payloads` at `rate` per second with at most `conns` open at
/// once. `give_up(latency_ms)` is asked after every answer; once it
/// returns true no further requests are started (a failing ladder rung
/// stops early). Returns the shots in index order, unsent ones omitted.
pub fn run(
    addr: SocketAddr,
    payloads: &[String],
    rate: f64,
    conns: usize,
    give_up: &(dyn Fn(f64) -> bool + Sync),
) -> Vec<Shot> {
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let shots = Mutex::new(Vec::with_capacity(payloads.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..conns.max(1) {
            scope.spawn(|| loop {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(payload) = payloads.get(i) else {
                    return;
                };
                let due = Duration::from_secs_f64(i as f64 / rate);
                let now = start.elapsed();
                let idle_at_due = now < due;
                if idle_at_due {
                    std::thread::sleep(due - now);
                }
                let sent = start.elapsed();
                let response = exchange(addr, payload);
                let shot = Shot {
                    index: i,
                    due,
                    sent,
                    done: start.elapsed(),
                    idle_at_due,
                    response,
                };
                if give_up(shot.latency_ms()) {
                    stop.store(true, Ordering::SeqCst);
                }
                shots
                    .lock()
                    .expect("a sender panicked while recording a shot")
                    .push(shot);
            });
        }
    });
    let mut shots = shots
        .into_inner()
        .expect("a sender panicked while recording a shot");
    shots.sort_by_key(|s| s.index);
    shots
}
