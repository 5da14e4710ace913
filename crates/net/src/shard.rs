//! A worker event loop over one shard of the connection table.
//!
//! The demux thread owns the socket's receive side and routes each
//! decoded datagram to the shard that owns its connection
//! (`conn_id % workers`). A shard owns its sessions outright — a
//! [`HashMap<u32, SessionCore>`], one [`TimerWheel`] for their retry
//! deadlines, and one scratch encode buffer — so no lock is ever taken
//! on the datagram path; sends go straight out the shared socket
//! (`UdpSocket::send_to` takes `&self`).
//!
//! Each loop iteration: fire due timers, pump paced transmissions, reap
//! finished sessions (reporting their conn-ids back to the demux so the
//! ids can be reused), then sleep on the event channel until the next
//! deadline. A shard never blocks longer than the earliest timer or
//! pacing deadline, and never spins when idle.

use std::collections::HashMap;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::session::{Ctx, SessionCore, Status};
use crate::telem::ServerTelem;
use crate::wheel::TimerWheel;
use crate::wire::Msg;

/// Longest a shard sleeps with nothing scheduled before re-checking the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(5);

/// Timer wheel granularity; retry backoffs are tens of milliseconds, so
/// a millisecond tick keeps firing error well under one backoff step.
const WHEEL_TICK: Duration = Duration::from_millis(1);

/// Wheel size: one lap of 512 ms covers the LAN retry schedule's longest
/// backoff without lap wraps (longer deadlines still fire correctly —
/// entries carry their absolute tick).
const WHEEL_SLOTS: usize = 512;

/// Work routed to a shard by the demux thread.
pub(crate) enum ShardEvent {
    /// A freshly accepted session to adopt into the table.
    Open(Box<SessionCore>),
    /// A decoded control datagram for a session this shard owns.
    Msg {
        /// Connection id (already `% workers`-routed to this shard).
        conn: u32,
        /// The decoded message.
        msg: Msg,
        /// Arrival timestamp (RTT samples use it).
        at: Instant,
    },
}

/// One worker event loop; `run` consumes it on the shard thread.
pub(crate) struct Shard {
    pub(crate) rx: Receiver<ShardEvent>,
    pub(crate) socket: Arc<UdpSocket>,
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Reports reaped conn-ids back to the demux for id reuse.
    pub(crate) reaped: Sender<u32>,
    /// Live-session gauge shared with the server handle (incremented by
    /// the demux on accept, decremented here on reap).
    pub(crate) live_gauge: Arc<AtomicUsize>,
    pub(crate) telem: ServerTelem,
}

impl Shard {
    pub(crate) fn run(self) {
        let origin = Instant::now();
        let mut wheel = TimerWheel::new(origin, WHEEL_TICK, WHEEL_SLOTS);
        let mut sessions: HashMap<u32, SessionCore> = HashMap::new();
        let mut scratch: Vec<u8> = Vec::with_capacity(4096);
        let mut finished: Vec<u32> = Vec::new();
        let mut due: Vec<u32> = Vec::new();
        while !self.shutdown.load(AtomicOrdering::SeqCst) {
            let now = Instant::now();

            // 1. Fire due retry deadlines. The wheel reports stale
            // (cancelled) generations too; the session filters them.
            for fired in wheel.advance(now) {
                if let Some(core) = sessions.get_mut(&fired.conn) {
                    let mut ctx = Ctx {
                        now,
                        wheel: &mut wheel,
                        socket: &self.socket,
                        scratch: &mut scratch,
                    };
                    if core.on_timer(fired.gen, &mut ctx) == Status::Finished {
                        finished.push(fired.conn);
                    }
                }
            }

            // 2. Pump paced transmissions for every session mid-window.
            due.clear();
            due.extend(
                sessions
                    .iter()
                    .filter(|(_, c)| c.pending_send_at().is_some_and(|t| t <= now))
                    .map(|(&conn, _)| conn),
            );
            for &conn in &due {
                if let Some(core) = sessions.get_mut(&conn) {
                    let mut ctx = Ctx {
                        now,
                        wheel: &mut wheel,
                        socket: &self.socket,
                        scratch: &mut scratch,
                    };
                    if core.on_tick(&mut ctx) == Status::Finished {
                        finished.push(conn);
                    }
                }
            }

            // 3. Reap finished sessions immediately — the table must not
            // grow with completed sessions (the leak this core retires).
            for conn in finished.drain(..) {
                if sessions.remove(&conn).is_some() {
                    self.live_gauge.fetch_sub(1, AtomicOrdering::SeqCst);
                    self.telem.sessions_reaped.inc();
                    let _ = self.reaped.send(conn);
                }
            }

            // 4. Sleep until the next deadline (timer, paced send, or
            // poll tick), waking early for routed datagrams.
            let mut wake = now + POLL;
            if let Some(t) = wheel.next_deadline() {
                wake = wake.min(t);
            }
            for core in sessions.values() {
                if let Some(t) = core.pending_send_at() {
                    wake = wake.min(t);
                }
            }
            let timeout = wake.saturating_duration_since(now);
            let first = if timeout.is_zero() {
                // Work is already due; just drain whatever queued.
                self.rx.try_recv().ok()
            } else {
                match self.rx.recv_timeout(timeout) {
                    Ok(ev) => Some(ev),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            };
            let mut next = first;
            while let Some(ev) = next {
                let now = Instant::now();
                let mut ctx = Ctx {
                    now,
                    wheel: &mut wheel,
                    socket: &self.socket,
                    scratch: &mut scratch,
                };
                match ev {
                    ShardEvent::Open(core) => {
                        let conn = core.conn_id();
                        let core = sessions.entry(conn).or_insert(*core);
                        core.start(&mut ctx);
                    }
                    ShardEvent::Msg { conn, msg, at } => {
                        if let Some(core) = sessions.get_mut(&conn) {
                            if core.on_msg(&msg, at, &mut ctx) == Status::Finished {
                                finished.push(conn);
                            }
                        }
                        // Unknown conn: already reaped — stale datagram.
                    }
                }
                next = self.rx.try_recv().ok();
            }
            for conn in finished.drain(..) {
                if sessions.remove(&conn).is_some() {
                    self.live_gauge.fetch_sub(1, AtomicOrdering::SeqCst);
                    self.telem.sessions_reaped.inc();
                    let _ = self.reaped.send(conn);
                }
            }
        }
        // Shutdown: sessions die with the table; the gauge reflects it.
        self.live_gauge
            .fetch_sub(sessions.len(), AtomicOrdering::SeqCst);
    }
}
