//! Behaviour of the readiness loop itself, through the public
//! transport API: no idle floor after silence (a round trip costs its
//! two flush ticks and no more), a burst shares one tick's write,
//! concurrent senders' frames all arrive once, a frame trickling in over
//! many readiness events is reassembled, no lost wake-ups under racing
//! senders — whether a `d2-poller` thread turns the poller or its holder
//! does — and no wake-ups at all when nothing happens.

use d2_obs::TraceCtx;
use d2_wire::codec::{self, Request};
use d2_wire::reactor::{TcpReactor, FLUSH_TICK};
use d2_wire::{NetMetrics, TcpConfig, TcpTransport, Transport, WireMsg};
use std::io::Write;
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

fn bind(metrics: &Arc<NetMetrics>) -> TcpTransport {
    TcpTransport::bind(
        Ipv4Addr::LOCALHOST,
        0,
        TcpConfig::default(),
        Arc::clone(metrics),
    )
    .unwrap()
}

fn msg(req_id: u64) -> WireMsg {
    WireMsg::Request {
        req_id,
        from: 1,
        body: Request::Status,
    }
}

fn req_id(m: &WireMsg) -> u64 {
    match m {
        WireMsg::Request { req_id, .. } => *req_id,
        other => panic!("unexpected message {other:?}"),
    }
}

#[test]
fn idle_then_active_has_no_latency_floor() {
    let m = Arc::new(NetMetrics::new());
    let a = bind(&m);
    let b = Arc::new(bind(&m));
    let to_a = a.local_addr();
    let echo = {
        let b = Arc::clone(&b);
        std::thread::spawn(move || {
            while let Ok((got, _)) = b.recv_timeout(Duration::from_secs(10)) {
                if b.send(to_a, &got).is_err() {
                    break;
                }
            }
        })
    };
    // Latency bounds on a shared host: a stolen core can spoil any one
    // attempt, so the best of three counts. An idle back-off under the
    // transport would spoil all three, because each attempt starts from
    // silence; the flush tick costs a round trip two ticks, busy or not,
    // and three when the echo thread's wake-up misses one.
    let mut report = String::new();
    let ok = (0..3).any(|attempt| {
        std::thread::sleep(Duration::from_millis(100));
        let mut rtts: Vec<Duration> = (0..200u64)
            .map(|i| {
                let t0 = Instant::now();
                a.send(b.local_addr(), &msg(i)).unwrap();
                let (got, _) = a.recv_timeout(Duration::from_secs(5)).unwrap();
                assert_eq!(req_id(&got), i);
                t0.elapsed()
            })
            .collect();
        rtts.sort();
        let (median, worst) = (rtts[rtts.len() / 2], rtts[rtts.len() - 1]);
        report.push_str(&format!(
            "attempt {attempt}: median {median:?} worst {worst:?}; "
        ));
        median < FLUSH_TICK * 4 && worst < Duration::from_millis(10)
    });
    assert!(ok, "round trips too slow after silence: {report}");
    b.shutdown();
    echo.join().unwrap();
    a.shutdown();
}

#[test]
fn a_burst_shares_one_flush_tick() {
    const BURST: u64 = 32;
    let m = Arc::new(NetMetrics::new());
    let a = bind(&m);
    let b = bind(&m);
    // Dial first: the inline connect is longer than a tick.
    a.send(b.local_addr(), &msg(0)).unwrap();
    b.recv_timeout(Duration::from_secs(5)).unwrap();
    // 32 sends take a few dozen microseconds, less than a tick. At most
    // one tick boundary falls inside the burst, and a lone frame on one
    // side of it is the only one that can miss a shared write. A
    // preempted sender splits the burst further, so the best of three
    // counts.
    let mut next = 1;
    let ok = (0..3).any(|_| {
        let before = m.snapshot().counter("net.coalesced_frames");
        for i in next..next + BURST {
            a.send(b.local_addr(), &msg(i)).unwrap();
        }
        for i in next..next + BURST {
            let (got, _) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(req_id(&got), i, "a tick must not reorder frames");
        }
        next += BURST;
        // Counted by the poller right after the write that delivered.
        std::thread::sleep(FLUSH_TICK * 16);
        m.snapshot().counter("net.coalesced_frames") - before >= BURST - 1
    });
    assert!(ok, "bursts inside one tick did not share a write");
    a.shutdown();
    b.shutdown();
}

/// Socket-level metrics are counted by the poller just after the
/// syscall, so they trail delivery slightly: waits until `key` reaches
/// `want`.
fn wait_counter(m: &NetMetrics, key: &str, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let got = m.snapshot().counter(key);
        if got >= want || Instant::now() > deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn concurrent_senders_coalesce_and_deliver_everything() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50;
    let m = Arc::new(NetMetrics::new());
    let a = Arc::new(bind(&m));
    let b = bind(&m);
    let to = b.local_addr();
    let handles: Vec<_> = (0..THREADS as u64)
        .map(|t| {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    a.send(to, &msg(t * PER_THREAD + i)).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total = (THREADS as u64) * PER_THREAD;
    let mut seen = std::collections::HashSet::new();
    for _ in 0..total {
        let (m, _) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        seen.insert(req_id(&m));
    }
    assert_eq!(seen.len(), total as usize, "every frame delivered intact");
    assert_eq!(wait_counter(&m, "net.msgs_out", total), total);
    assert_eq!(wait_counter(&m, "net.msgs_in", total), total);
    let reg = m.snapshot();
    assert_eq!(reg.counter("net.bytes_out"), reg.counter("net.bytes_in"));
    // Coalesced frames (if any) are a subset of all frames sent.
    assert!(reg.counter("net.coalesced_frames") <= total);
    a.shutdown();
    b.shutdown();
}

#[test]
fn partial_frames_across_readiness_events() {
    // A frame trickling in a few bytes per readiness event must be
    // reassembled intact: TCP guarantees nothing about boundaries,
    // and the read state machine carries the tail across wake-ups.
    let m = Arc::new(NetMetrics::new());
    let a = bind(&m);
    let ctx = TraceCtx::root(0x7777).child(3);
    let bytes = codec::encode_traced(&msg(42), ctx);
    let mut s = TcpStream::connect(SocketAddr::V4(a.socket_addr())).unwrap();
    s.set_nodelay(true).unwrap();
    for chunk in bytes.chunks(3) {
        s.write_all(chunk).unwrap();
        s.flush().unwrap();
        // Every write makes the socket readable and wakes the
        // poller; the pause lets it drain each chunk as its own
        // readiness event instead of one buffered blob.
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        a.recv_timeout(Duration::from_secs(5)).unwrap(),
        (msg(42), ctx)
    );
    // Two frames back to back in one readiness event both decode.
    let mut two = codec::encode_traced(&msg(43), TraceCtx::NONE);
    two.extend_from_slice(&codec::encode_traced(&msg(44), TraceCtx::NONE));
    s.write_all(&two).unwrap();
    assert_eq!(a.recv_timeout(Duration::from_secs(5)).unwrap().0, msg(43));
    assert_eq!(a.recv_timeout(Duration::from_secs(5)).unwrap().0, msg(44));
    // A frame of several reads' worth (one event reads 64 KiB at most):
    // the socket reports the rest ready again with no new bytes behind.
    let big = WireMsg::Request {
        req_id: 45,
        from: 1,
        body: Request::Put {
            key: d2_types::Key::from_u64(45),
            fanout: 0,
            stored: 0,
            data: vec![0xD2; 200_000],
        },
    };
    s.write_all(&codec::encode_traced(&big, TraceCtx::NONE))
        .unwrap();
    assert_eq!(a.recv_timeout(Duration::from_secs(5)).unwrap().0, big);
    a.shutdown();
}

/// Eight senders race the poller of `a` back to sleep, 5,000 rounds.
fn race_senders(a: Arc<dyn Transport>, m: &Arc<NetMetrics>) {
    const THREADS: u64 = 8;
    const ROUNDS: u64 = 5_000;
    let b = bind(m);
    let to = b.local_addr();
    let epoch = Instant::now();
    // One round: every sender fires one frame after a random
    // sub-millisecond pause, racing the poller as it goes back to
    // sleep; the next round starts only once all eight arrived. The
    // quiet in between is what makes a lost wake-up visible: a
    // stranded frame has no later send to rescue it.
    let round = Arc::new(Barrier::new(THREADS as usize + 1));
    let senders: Vec<_> = (0..THREADS)
        .map(|t| {
            let (a, round) = (Arc::clone(&a), Arc::clone(&round));
            std::thread::spawn(move || {
                let mut x = t + 1;
                for i in 0..ROUNDS {
                    round.wait();
                    // xorshift; spinning, because `sleep` rounds tens
                    // of microseconds up.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let pause = Instant::now() + Duration::from_micros(x % 128);
                    while Instant::now() < pause {
                        std::hint::spin_loop();
                    }
                    // The frame carries its own send time.
                    let m = WireMsg::Request {
                        req_id: t * ROUNDS + i,
                        from: epoch.elapsed().as_micros() as usize,
                        body: Request::Status,
                    };
                    a.send(to, &m).unwrap();
                }
            })
        })
        .collect();
    let mut seen = vec![false; (THREADS * ROUNDS) as usize];
    let (mut worst, mut late) = (Duration::ZERO, 0);
    for _ in 0..ROUNDS {
        round.wait();
        for _ in 0..THREADS {
            let (got, _) = b
                .recv_timeout(Duration::from_secs(5))
                .expect("a frame was never delivered");
            let WireMsg::Request { req_id, from, .. } = got else {
                panic!("unexpected message {got:?}");
            };
            assert!(!std::mem::replace(&mut seen[req_id as usize], true));
            let sent = Duration::from_micros(from as u64);
            let gap = epoch.elapsed().saturating_sub(sent);
            worst = worst.max(gap);
            late += u32::from(gap >= Duration::from_millis(50));
        }
    }
    for s in senders {
        s.join().unwrap();
    }
    // The shared host now and then freezes a core for longer than 50 ms;
    // a lost wake-up strands its frame until the 5 s receive timeout.
    assert!(
        late <= 2 && worst < Duration::from_secs(1),
        "{late} of 40,000 frames took 50 ms or more, the worst {worst:?}"
    );
    a.shutdown();
}

#[test]
fn racing_senders_never_lose_a_wakeup() {
    let m = Arc::new(NetMetrics::new());
    race_senders(Arc::new(bind(&m)), &m);
}

/// The same race against a poller its holder turns, as a node host
/// does: one thread blocks in `turn` with no timeout, so a lost wake-up
/// is for good, and beside the senders a controller keeps handing it
/// events the way `Host::add` or `Host::counts` do — publish, wake,
/// wait for the answer.
#[test]
fn a_turned_poller_loses_no_wakeup_to_senders_or_control_events() {
    let m = Arc::new(NetMetrics::new());
    let cfg = TcpConfig::default();
    let (reactor, mut poller) = TcpReactor::bind(Ipv4Addr::LOCALHOST, 0, cfg, m.clone()).unwrap();
    let a = Arc::new(reactor.open(Ipv4Addr::LOCALHOST).unwrap());
    let wake = poller.waker();
    let stop = Arc::new(AtomicBool::new(false));
    let (events, inbox) = mpsc::channel::<mpsc::Sender<()>>();
    let turner = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                poller.turn(None);
                while let Ok(reply) = inbox.try_recv() {
                    reply.send(()).unwrap();
                }
            }
        })
    };
    let controller = {
        let (stop, wake) = (Arc::clone(&stop), Arc::clone(&wake));
        std::thread::spawn(move || {
            let mut answered = 0u64;
            while !stop.load(Ordering::Acquire) {
                let (reply, done) = mpsc::channel();
                if events.send(reply).is_err() {
                    break; // the turner has stopped
                }
                wake();
                match done.recv_timeout(Duration::from_secs(5)) {
                    Ok(()) => answered += 1,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    Err(_) => panic!("a control event was never looked at"),
                }
            }
            answered
        })
    };
    race_senders(a, &m);
    stop.store(true, Ordering::Release);
    wake();
    assert!(controller.join().unwrap() > 0);
    turner.join().unwrap();
}

/// A turned poller with nothing to do sleeps out its holder's timeout —
/// a host's next tick round — in one `ppoll`, and nobody writes its
/// wake pipe.
#[test]
fn an_idle_turned_poller_blocks_until_its_holders_timeout() {
    let m = Arc::new(NetMetrics::new());
    let cfg = TcpConfig::default();
    let (_reactor, mut poller) = TcpReactor::bind(Ipv4Addr::LOCALHOST, 0, cfg, m.clone()).unwrap();
    let t0 = Instant::now();
    for _ in 0..4 {
        poller.turn(Some(Duration::from_millis(25)));
    }
    assert!(t0.elapsed() >= Duration::from_millis(100));
    let reg = m.snapshot();
    assert_eq!(reg.counter("net.poller_wakeups"), 4);
    assert_eq!(reg.counter("net.poller_ready_fds"), 0);
    assert_eq!(reg.counter("net.wake_writes"), 0);
}

#[test]
fn quiet_transport_makes_no_wakeups() {
    let m = Arc::new(NetMetrics::new());
    let a = bind(&m);
    let b = bind(&m);
    // One exchange, so both pollers hold live connections (and the
    // counter is shown to move at all).
    a.send(b.local_addr(), &msg(1)).unwrap();
    b.recv_timeout(Duration::from_secs(5)).unwrap();
    b.send(a.local_addr(), &msg(2)).unwrap();
    a.recv_timeout(Duration::from_secs(5)).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let before = m.snapshot().counter("net.poller_wakeups");
    assert!(before >= 4, "two sends and two receives woke the pollers");
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        m.snapshot().counter("net.poller_wakeups"),
        before,
        "an idle reactor must block in ppoll, with no tick armed"
    );
    a.shutdown();
    b.shutdown();
}
