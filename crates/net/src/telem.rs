//! Transport instruments. Handles resolve against the **current**
//! registry (the thread-local override when installed, else the process
//! global) at construction time, on the caller's thread — construct
//! before spawning worker threads so tests can scope metrics with
//! `with_current`. Call sites bump the fields directly.

use espread_telemetry::{current, Counter, Histogram};

/// Server-side socket and retry instruments.
#[derive(Debug, Clone)]
pub(crate) struct ServerTelem {
    pub(crate) sessions: Counter,
    pub(crate) sessions_completed: Counter,
    pub(crate) sessions_reaped: Counter,
    pub(crate) handshake_evictions: Counter,
    pub(crate) busy_rejections: Counter,
    pub(crate) shed_enhancement: Counter,
    pub(crate) shed_stale_retx: Counter,
    pub(crate) watchdog_terminations: Counter,
    pub(crate) datagrams_tx: Counter,
    pub(crate) datagrams_rx: Counter,
    pub(crate) bytes_tx: Counter,
    pub(crate) send_errors: Counter,
    pub(crate) decode_errors: Counter,
    pub(crate) retries: Counter,
    pub(crate) ack_timeouts: Counter,
    pub(crate) handshake_timeouts: Counter,
    pub(crate) retransmissions: Counter,
    pub(crate) encode_oversize: Counter,
    pub(crate) fec_groups: Counter,
    pub(crate) fec_parity_sent: Counter,
    pub(crate) rtt_us: Histogram,
}

impl ServerTelem {
    pub(crate) fn default_global() -> Self {
        let r = current();
        ServerTelem {
            sessions: r.counter("net.server.sessions"),
            sessions_completed: r.counter("net.server.sessions_completed"),
            sessions_reaped: r.counter("net.server.sessions_reaped"),
            handshake_evictions: r.counter("net.server.handshake_evictions"),
            busy_rejections: r.counter("net.server.busy_rejections"),
            shed_enhancement: r.counter("net.server.shed_enhancement"),
            shed_stale_retx: r.counter("net.server.shed_stale_retx"),
            watchdog_terminations: r.counter("net.server.watchdog_terminations"),
            datagrams_tx: r.counter("net.server.datagrams_tx"),
            datagrams_rx: r.counter("net.server.datagrams_rx"),
            bytes_tx: r.counter("net.server.bytes_tx"),
            send_errors: r.counter("net.server.send_errors"),
            decode_errors: r.counter("net.server.decode_errors"),
            retries: r.counter("net.server.retries"),
            ack_timeouts: r.counter("net.server.ack_timeouts"),
            handshake_timeouts: r.counter("net.server.handshake_timeouts"),
            retransmissions: r.counter("net.server.retransmissions"),
            encode_oversize: r.counter("net.wire.encode_oversize"),
            fec_groups: r.counter("net.fec.groups"),
            fec_parity_sent: r.counter("net.fec.parity_sent"),
            rtt_us: r.histogram("net.server.rtt_us"),
        }
    }
}

/// Client-side socket instruments.
#[derive(Debug, Clone)]
pub(crate) struct ClientTelem {
    pub(crate) datagrams_tx: Counter,
    pub(crate) datagrams_rx: Counter,
    pub(crate) send_errors: Counter,
    pub(crate) hello_retries: Counter,
    pub(crate) begin_retries: Counter,
    pub(crate) windows: Counter,
    pub(crate) bad_fragments: Counter,
    pub(crate) decode_errors: Counter,
    pub(crate) encode_oversize: Counter,
    pub(crate) fec_recovered: Counter,
    pub(crate) fec_unrecoverable: Counter,
}

impl ClientTelem {
    pub(crate) fn default_global() -> Self {
        let r = current();
        ClientTelem {
            datagrams_tx: r.counter("net.client.datagrams_tx"),
            datagrams_rx: r.counter("net.client.datagrams_rx"),
            send_errors: r.counter("net.client.send_errors"),
            hello_retries: r.counter("net.client.hello_retries"),
            begin_retries: r.counter("net.client.begin_retries"),
            windows: r.counter("net.client.windows"),
            bad_fragments: r.counter("net.client.bad_fragments"),
            decode_errors: r.counter("net.client.decode_errors"),
            encode_oversize: r.counter("net.wire.encode_oversize"),
            fec_recovered: r.counter("net.fec.recovered"),
            fec_unrecoverable: r.counter("net.fec.unrecoverable"),
        }
    }
}

/// Proxy fault-injection instruments.
#[derive(Debug, Clone)]
pub(crate) struct ProxyTelem {
    pub(crate) forwarded: Counter,
    pub(crate) dropped: Counter,
    pub(crate) duplicated: Counter,
    pub(crate) reordered: Counter,
    pub(crate) corrupted: Counter,
    pub(crate) truncated: Counter,
    pub(crate) send_errors: Counter,
}

impl ProxyTelem {
    pub(crate) fn default_global() -> Self {
        let r = current();
        ProxyTelem {
            forwarded: r.counter("net.proxy.forwarded"),
            dropped: r.counter("net.proxy.dropped"),
            duplicated: r.counter("net.proxy.duplicated"),
            reordered: r.counter("net.proxy.reordered"),
            corrupted: r.counter("net.proxy.corrupted"),
            truncated: r.counter("net.proxy.truncated"),
            send_errors: r.counter("net.proxy.send_errors"),
        }
    }
}
