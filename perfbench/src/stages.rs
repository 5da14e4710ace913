//! Stage latencies of a window's trip, read off the flight recordings of
//! the server, proxy and client (one shared epoch, so their timestamps
//! compare).

use std::collections::HashMap;

use espread_obs::{detail_retransmit, EventKind, Recording};

/// Stage samples in microseconds, accumulated across recordings.
#[derive(Debug, Default)]
pub struct Stages {
    /// Frame queued into the schedule → its first fragment sent.
    pub queued_to_sent: Vec<f64>,
    /// Data fragment sent by the server → forwarded by the proxy.
    pub proxy_hop: Vec<f64>,
    /// `WindowEnd` first sent → its `WindowAck` folded in.
    pub windowend_to_ack: Vec<f64>,
    /// Last fragment of a window delivered → the window closed.
    pub deliver_to_close: Vec<f64>,
    /// First-send data datagrams the server handed to the socket.
    pub first_sends: u64,
}

type FrameKey = (u32, u64, u32);
type WindowKey = (u32, u64);

impl Stages {
    /// Adds the samples of one server/proxy/client recording set.
    pub fn add(&mut self, server: &Recording, proxy: &Recording, client: &Recording) {
        let mut queued: HashMap<FrameKey, u64> = HashMap::new();
        let mut first_sent: HashMap<FrameKey, u64> = HashMap::new();
        let mut sent: HashMap<(FrameKey, u32), u64> = HashMap::new();
        let mut window_end: HashMap<WindowKey, u64> = HashMap::new();
        let mut acked: HashMap<WindowKey, u64> = HashMap::new();
        for e in &server.events {
            let frame = (e.conn, e.window, e.frame);
            let window = (e.conn, e.window);
            match e.kind {
                EventKind::Queued => {
                    queued.entry(frame).or_insert(e.t_us);
                }
                EventKind::Sent => {
                    self.first_sends += 1;
                    first_sent.entry(frame).or_insert(e.t_us);
                    sent.entry((frame, e.detail)).or_insert(e.t_us);
                }
                EventKind::WindowEndSent => {
                    window_end.entry(window).or_insert(e.t_us);
                }
                EventKind::AckReceived => {
                    acked.entry(window).or_insert(e.t_us);
                }
                _ => {}
            }
        }
        for (key, &q) in &queued {
            if let Some(&s) = first_sent.get(key) {
                self.queued_to_sent.push(s.saturating_sub(q) as f64);
            }
        }
        for (key, &w) in &window_end {
            if let Some(&a) = acked.get(key) {
                self.windowend_to_ack.push(a.saturating_sub(w) as f64);
            }
        }
        let mut forwarded: HashMap<(FrameKey, u32), u64> = HashMap::new();
        for e in &proxy.events {
            if e.kind == EventKind::ForwardedData && !detail_retransmit(e.detail) {
                forwarded
                    .entry(((e.conn, e.window, e.frame), e.detail))
                    .or_insert(e.t_us);
            }
        }
        for (key, &f) in &forwarded {
            if let Some(&s) = sent.get(key) {
                self.proxy_hop.push(f.saturating_sub(s) as f64);
            }
        }
        let mut last_delivered: HashMap<WindowKey, u64> = HashMap::new();
        let mut closed: HashMap<WindowKey, u64> = HashMap::new();
        for e in &client.events {
            let window = (e.conn, e.window);
            match e.kind {
                EventKind::Delivered => {
                    let t = last_delivered.entry(window).or_insert(e.t_us);
                    *t = (*t).max(e.t_us);
                }
                EventKind::WindowClosed => {
                    closed.entry(window).or_insert(e.t_us);
                }
                _ => {}
            }
        }
        for (key, &c) in &closed {
            if let Some(&d) = last_delivered.get(key) {
                self.deliver_to_close.push(c.saturating_sub(d) as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espread_obs::{data_detail, trio, FRAME_NONE};

    #[test]
    fn stages_pair_events_across_roles() {
        let (server, proxy, client) = trio(64, 0);
        let d0 = data_detail(0, false);
        server.record(EventKind::Queued, 1, 0, 3, 0);
        server.record(EventKind::Sent, 1, 0, 3, d0);
        server.record(EventKind::Sent, 1, 0, 3, data_detail(1, false));
        proxy.record(EventKind::ForwardedData, 1, 0, 3, d0);
        // A retransmission is neither a first send nor a hop sample.
        server.record(EventKind::Retransmitted, 1, 0, 3, data_detail(0, true));
        proxy.record(EventKind::ForwardedData, 1, 0, 3, data_detail(0, true));
        client.record(EventKind::Delivered, 1, 0, 3, d0);
        server.record(EventKind::WindowEndSent, 1, 0, FRAME_NONE, 0);
        server.record(EventKind::WindowEndSent, 1, 0, FRAME_NONE, 0);
        client.record(EventKind::WindowClosed, 1, 0, FRAME_NONE, 24);
        server.record(EventKind::AckReceived, 1, 0, FRAME_NONE, 0);
        // An ack with no WindowEnd on record pairs with nothing.
        server.record(EventKind::AckReceived, 2, 0, FRAME_NONE, 0);

        let mut stages = Stages::default();
        stages.add(&server.recording(), &proxy.recording(), &client.recording());
        assert_eq!(stages.first_sends, 2);
        assert_eq!(stages.queued_to_sent.len(), 1);
        assert_eq!(stages.proxy_hop.len(), 1);
        assert_eq!(stages.windowend_to_ack.len(), 1);
        assert_eq!(stages.deliver_to_close.len(), 1);
        let all = [
            &stages.queued_to_sent,
            &stages.proxy_hop,
            &stages.windowend_to_ack,
            &stages.deliver_to_close,
        ];
        assert!(all.iter().flat_map(|v| v.iter()).all(|&us| us >= 0.0));
    }
}
