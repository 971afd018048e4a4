//! In-process replay of the served transactions against each layer's
//! entry point, for the traced run: the wire codec, the `TxnEngine` op,
//! `RhDb::commit_prepare` and `LogManager::flush_to` on one engine, and
//! `ShardedDb::commit` on two shards. Identical inputs to the served
//! load give each layer's self time without the network in the way.

use crate::gen::{Mix, Step, Stream};
use crate::image::Db;
use crate::spans::Spans;
use crate::stats::Samples;
use rh_common::codec::Codec;
use rh_common::TxnId;
use rh_core::TxnEngine;
use rh_obs::names;
use rh_server::wire::{read_frame, write_frame, Op, Reply, ReplyBody, Request, Response, NO_TRACE};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Instant;

/// Layer times of one replay.
#[derive(Debug, Default)]
pub struct ReplayLayers {
    /// Encode plus decode of one request, ns.
    pub codec_ns: Samples,
    /// One non-commit engine call, µs.
    pub op_us: Samples,
    /// The commit record append under the engine, µs.
    pub commit_prepare_us: Samples,
    /// The durable force of a commit, µs.
    pub flush_us: Samples,
    /// Engine time of one transaction's calls before its commit, µs.
    pub txn_ops_us: Samples,
    /// Every request of the replay, encoded.
    pub frames: Vec<Vec<u8>>,
}

fn request(step: &Step, ids: &[TxnId; 2]) -> Request {
    let op = match step {
        Step::Begin(_) => Op::Begin,
        Step::Write(k, ob, v) => Op::Write(ids[*k], *ob, *v),
        Step::Add(k, ob, d) => Op::Add(ids[*k], *ob, *d),
        Step::Delegate(a, b, obs) => Op::Delegate(ids[*a], ids[*b], obs.clone()),
        Step::Abort(k) => Op::Abort(ids[*k]),
        Step::Commit(k) => Op::Commit(ids[*k]),
    };
    Request { id: 1, trace: NO_TRACE, op }
}

fn engine_call<E: TxnEngine>(db: &mut E, step: &Step, ids: &mut [TxnId; 2]) {
    let done = match step {
        Step::Begin(k) => db.begin().map(|t| ids[*k] = t),
        Step::Write(k, ob, v) => db.write(ids[*k], *ob, *v),
        Step::Add(k, ob, d) => db.add(ids[*k], *ob, *d),
        Step::Delegate(a, b, obs) => db.delegate(ids[*a], ids[*b], obs),
        Step::Abort(k) => db.abort(ids[*k]),
        Step::Commit(_) => unreachable!("commits are timed by phase"),
    };
    done.expect("replayed engine call");
}

/// Round trips of `frames` over a loopback socket to a thread that
/// answers each request frame with a unit reply, framed as the server
/// frames them: the wire and the two thread wake-ups of a call, without
/// the server's dispatch or the engine. Microseconds per round trip.
pub fn loopback_echo(frames: &[Vec<u8>]) -> Samples {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo listener");
    let addr = listener.local_addr().expect("echo address");
    let reply = Response { id: 1, reply: Reply::Ok(ReplyBody::Unit) }.to_bytes();
    std::thread::scope(|s| {
        s.spawn(|| {
            let (mut peer, _) = listener.accept().expect("echo accept");
            let _ = peer.set_nodelay(true);
            while let Ok(Some(_)) = read_frame(&mut peer) {
                write_frame(&mut peer, &reply).expect("echo reply");
            }
        });
        let mut conn = TcpStream::connect(addr).expect("echo connect");
        let _ = conn.set_nodelay(true);
        let mut out = Samples::default();
        for f in frames {
            let t0 = Instant::now();
            write_frame(&mut conn, f).expect("echo request");
            read_frame(&mut conn).expect("echo read").expect("echo frame");
            out.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        drop(conn);
        out
    })
}

/// Replays `txns` transactions of each of `streams` (interleaved) on a
/// fresh file-backed engine in `dirs`, recording spans into `spans`.
pub fn replay(
    mix: Mix,
    seed: u64,
    streams: &[u32],
    txns: usize,
    dirs: &[PathBuf],
    spans: &mut Spans,
) -> ReplayLayers {
    let mut db = Db::create(dirs);
    let mut gens: Vec<Stream> = streams.iter().map(|&s| Stream::new(seed, s, mix)).collect();
    let mut out = ReplayLayers::default();
    let mut key = 1u64 << 60;
    for _ in 0..txns {
        for g in &mut gens {
            let plan = g.next_txn();
            key += 1;
            let root = spans.open("replay.txn", None, key);
            let mut ids = [TxnId::NONE; 2];
            let mut ops_us = 0.0;
            for step in &plan.steps {
                let c = spans.open("wire.codec", Some(root), key);
                let t0 = Instant::now();
                let bytes = std::hint::black_box(request(step, &ids)).to_bytes();
                let back = Request::from_bytes(&bytes).expect("request round trip");
                out.codec_ns.push(t0.elapsed().as_nanos() as f64);
                std::hint::black_box(back);
                spans.close(c);
                out.frames.push(bytes);
                let t0 = Instant::now();
                match (&mut db, step) {
                    (Db::Single(db), Step::Commit(k)) => {
                        let s = spans.open("engine.commit_prepare", Some(root), key);
                        let lsn = db.commit_prepare(ids[*k]).expect("commit_prepare");
                        spans.close(s);
                        out.commit_prepare_us.push(t0.elapsed().as_secs_f64() * 1e6);
                        let f0 = Instant::now();
                        let s = spans.open("wal.flush_to", Some(root), key);
                        db.log().flush_to(lsn).expect("flush_to");
                        spans.close(s);
                        out.flush_us.push(f0.elapsed().as_secs_f64() * 1e6);
                    }
                    (Db::Sharded(db), Step::Commit(k)) => {
                        let s = spans.open("engine.commit", Some(root), key);
                        let phases = db.commit_traced(ids[*k], NO_TRACE).expect("sharded commit");
                        spans.close(s);
                        // A single-shard commit reports its prepare and
                        // force; a cross-shard one its 2PC edges, which
                        // the server's histograms cover.
                        for (name, p) in phases {
                            match name {
                                names::PH_COMMIT_PREPARE => out.commit_prepare_us.push(p as f64),
                                names::PH_FLUSH_WAIT => out.flush_us.push(p as f64),
                                _ => {}
                            }
                        }
                    }
                    (db, step) => {
                        let s = spans.open("engine.op", Some(root), key);
                        match db {
                            Db::Single(db) => engine_call(db, step, &mut ids),
                            Db::Sharded(db) => engine_call(db, step, &mut ids),
                        }
                        spans.close(s);
                        let us = t0.elapsed().as_secs_f64() * 1e6;
                        out.op_us.push(us);
                        ops_us += us;
                    }
                }
            }
            spans.close(root);
            out.txn_ops_us.push(ops_us);
        }
    }
    out
}
