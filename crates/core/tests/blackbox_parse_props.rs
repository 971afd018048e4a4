//! Adversarial input for the black-box record decoder.
//!
//! Recovery reads the predecessor's newest black-box record straight
//! from disk and hands it to `BlackBoxRecord::parse`. Whatever those
//! bytes are — garbage, a record cut short, a record with bytes flipped
//! or spliced in, pathological nesting — parsing must return `None` or
//! a record consistent with its own JSON, and must never panic.

use proptest::collection;
use proptest::prelude::*;
use rh_core::flight::BLACKBOX_TRACE_EVENTS;
use rh_obs::blackbox::Capture;
use rh_obs::trace::NONE;
use rh_obs::{names, BlackBoxRecord, JsonValue, Obs};

/// A real record, rendered the way the flight recorder renders it.
fn valid_record(salt: u64) -> Vec<u8> {
    let obs = Obs::new();
    obs.registry.add(names::M_LOG_APPENDS, salt);
    obs.registry.observe(names::M_BLACKBOX_PERSIST_US, salt % 977);
    for i in 0..(salt % 9) {
        obs.tracer.point(names::EV_LOG_FLUSH, i, NONE, salt, i);
    }
    obs.slowops.set_threshold_us(0);
    obs.record_slow_op("commit", salt, NONE, 1500, vec![(names::PH_FLUSH_WAIT, 1400)]);
    Capture::take(&obs, salt, "commit-cadence", BLACKBOX_TRACE_EVENTS).encode(salt)
}

/// A parse result is either `None` or agrees with its own raw JSON.
fn consistent(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Some(rec) = BlackBoxRecord::parse(bytes) {
        prop_assert_eq!(rec.raw.get("seq").and_then(JsonValue::as_u64), Some(rec.seq));
        prop_assert_eq!(rec.raw.get("at_us").and_then(JsonValue::as_u64), Some(rec.at_us));
        prop_assert_eq!(rec.raw.get("reason").and_then(JsonValue::as_str), Some(&*rec.reason));
        // The accessors recovery and rh-postmortem use stay total.
        let _ = (rec.counters(), rec.final_events(20), rec.slow_ops());
    }
    Ok(())
}

/// Bytes drawn mostly from JSON's own alphabet, so the parser gets deep
/// into its grammar instead of failing on the first byte.
fn jsonish() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] = b"{}[]\":,0123456789-.eE+tfnul \\\"seqat_usreason";
    prop_oneof![
        collection::vec(any::<u8>(), 0..256),
        collection::vec(0usize..ALPHABET.len(), 0..256)
            .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_parse(bytes in jsonish()) {
        prop_assert!(BlackBoxRecord::parse(&bytes).is_none());
    }

    #[test]
    fn truncated_records_never_parse(salt in 0u64..10_000, cut in any::<u64>()) {
        let bytes = valid_record(salt);
        prop_assert!(BlackBoxRecord::parse(&bytes).is_some());
        let cut = (cut % bytes.len() as u64) as usize;
        prop_assert!(BlackBoxRecord::parse(&bytes[..cut]).is_none());
    }

    #[test]
    fn mutated_records_never_panic(
        salt in 0u64..10_000,
        edits in collection::vec((any::<u64>(), any::<u8>(), 0u8..3), 1..8),
    ) {
        let mut bytes = valid_record(salt);
        for (at, byte, how) in edits {
            let at = (at % (bytes.len() as u64 + 1)) as usize;
            match how {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.push(byte),
            }
        }
        consistent(&bytes)?;
    }

    #[test]
    fn deep_nesting_is_refused(depth in 1usize..200_000, open in 0u8..2) {
        let opener: &[u8] = if open == 0 { b"[" } else { b"{\"seq\":" };
        let bytes = opener.repeat(depth);
        prop_assert!(BlackBoxRecord::parse(&bytes).is_none());
    }
}
