//! Property-based tests for protocol invariants across random
//! configurations and channels.

use espread_protocol::{
    LayerInfo, Ordering, ProtocolConfig, Recovery, Session, StreamSource, WindowPlan,
};
use espread_trace::{AudioStream, GopPattern, Movie, MpegTrace};
use proptest::prelude::*;

fn any_ordering() -> impl Strategy<Value = Ordering> {
    prop_oneof![
        Just(Ordering::InOrder),
        Just(Ordering::spread()),
        Just(Ordering::Spread { adaptive: false }),
        Just(Ordering::Ibo),
    ]
}

fn any_recovery() -> impl Strategy<Value = Recovery> {
    prop_oneof![
        Just(Recovery::None),
        Just(Recovery::Retransmit),
        (2u16..8).prop_map(|group| Recovery::Fec { group }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every ordering's window plan is a permutation of the window that
    /// respects the dependency poset.
    #[test]
    fn plans_are_valid_linear_extensions(
        ordering in any_ordering(),
        w in 1usize..4,
        open in any::<bool>(),
        estimates in prop::collection::vec(1usize..20, 5),
    ) {
        let poset = GopPattern::gop12().dependency_poset(w, open);
        let plan = WindowPlan::build(ordering, &poset, &estimates);
        let order: Vec<usize> = plan.schedule.iter().map(|s| s.frame).collect();
        prop_assert_eq!(order.len(), poset.len());
        prop_assert!(poset.is_linear_extension(&order), "{} {:?}", ordering, order);
        prop_assert!(plan.critical_prefix <= plan.schedule.len());
    }

    /// Sessions are deterministic in the seed and never report more loss
    /// than frames.
    #[test]
    fn sessions_deterministic_and_sane(
        ordering in any_ordering(),
        recovery in any_recovery(),
        p_bad in 0.0f64..0.9,
        seed in any::<u64>(),
    ) {
        let trace = MpegTrace::new(Movie::JurassicPark, 3);
        let source = StreamSource::mpeg(&trace, 1, 6, false);
        let cfg = ProtocolConfig::paper(p_bad, seed)
            .with_ordering(ordering)
            .with_recovery(recovery);
        let run = |cfg: ProtocolConfig, src: StreamSource| Session::new(cfg, src).run();
        let a = run(cfg.clone(), source.clone());
        let b = run(cfg, source.clone());
        prop_assert_eq!(
            a.series.clf_values().collect::<Vec<_>>(),
            b.series.clf_values().collect::<Vec<_>>()
        );
        for m in a.series.windows() {
            prop_assert!(m.clf() <= m.window_len());
            prop_assert!(m.lost() <= m.window_len());
            prop_assert_eq!(m.window_len(), source.frames_per_window());
        }
        prop_assert!(a.packets_lost <= a.packets_offered);
    }

    /// On a lossless channel with ample bandwidth every scheme is
    /// loss-free: permuting can never *create* discontinuity.
    #[test]
    fn lossless_channel_is_loss_free(ordering in any_ordering(), recovery in any_recovery()) {
        let trace = MpegTrace::new(Movie::JurassicPark, 4);
        let source = StreamSource::mpeg(&trace, 2, 4, true);
        let mut cfg = ProtocolConfig::paper(0.0, 1)
            .with_ordering(ordering)
            .with_recovery(recovery);
        cfg.p_good = 1.0;
        cfg.p_bad = 0.0;
        let report = Session::new(cfg, source).run();
        prop_assert_eq!(report.summary().mean_clf, 0.0);
        prop_assert_eq!(report.summary().total_lost, 0);
        prop_assert_eq!(report.dropped_frames, 0);
    }

    /// Audio (dependency-free) sessions: the protocol degenerates to pure
    /// scrambling with a single layer and still works for any window size.
    #[test]
    fn audio_any_window_size(n in 4usize..64, p_bad in 0.0f64..0.8, seed in any::<u64>()) {
        let source = StreamSource::audio(AudioStream::sun_audio(), n, 5);
        let report = Session::new(ProtocolConfig::paper(p_bad, seed), source).run();
        prop_assert_eq!(report.series.len(), 5);
        prop_assert_eq!(report.estimate_history[0].len(), 1);
    }

    /// FEC strictly adds bandwidth and never increases aggregate loss on
    /// the same channel realisation.
    #[test]
    fn fec_costs_bandwidth(group in 2u16..10, seed in any::<u64>()) {
        let trace = MpegTrace::new(Movie::JurassicPark, 5);
        let source = StreamSource::mpeg(&trace, 1, 8, false);
        let base = Session::new(ProtocolConfig::paper(0.5, seed), source.clone()).run();
        let fec = Session::new(
            ProtocolConfig::paper(0.5, seed).with_recovery(Recovery::Fec { group }),
            source,
        )
        .run();
        prop_assert!(fec.bytes_offered > base.bytes_offered);
    }
}

/// A random layer order of 1..40 frames paired with a burst length that
/// can exceed the layer (up to twice its length plus one).
fn order_and_burst() -> impl Strategy<Value = (Vec<usize>, usize)> {
    (1usize..40).prop_flat_map(|n| {
        (
            Just((0..n).collect::<Vec<usize>>()).prop_shuffle(),
            1usize..2 * n + 2,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-pass worst projected CLF equals the maximum of the
    /// per-start truncated reference over every start slot.
    #[test]
    fn worst_projected_clf_matches_per_start_reference(case in order_and_burst()) {
        let (order, len) = case;
        let perm = espread_core::Permutation::from_vec(order).unwrap();
        let reference = (0..perm.len())
            .filter_map(|start| espread_core::try_burst_clf(&perm, start, len))
            .max();
        let layer = LayerInfo {
            frames: (0..perm.len()).collect(),
            critical: false,
            burst_bound: 1,
            order: perm,
        };
        prop_assert_eq!(layer.worst_projected_clf(len), reference);
    }
}
