//! P2 — engine bench: DES kernel throughput.
//!
//! How many events per wall-second the kernel processes, and how many
//! simulated grid-seconds per wall-second an E1-style world achieves —
//! the numbers that justify "a week of grid time in minutes".

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gridsim::prelude::*;
use gridsim::AnyMsg;
use gridsim::{Config, World};

/// A component that keeps `fanout` timers rotating forever.
struct TimerStorm {
    fanout: u32,
}

impl Component for TimerStorm {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for tag in 0..self.fanout {
            ctx.set_timer(Duration::from_millis(1 + tag as u64), tag as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        ctx.set_timer(Duration::from_millis(1 + (tag % 16)), tag);
    }
}

/// Sets a burst of timers two seconds out, 2 ms apart, and the next burst
/// once the last of them has fired: every burst fills a different far
/// bucket of the event queue and is drained before the next one lands.
struct Bursts {
    burst: u32,
    pending: u32,
}

impl Bursts {
    fn arm(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.burst {
            ctx.set_timer(Duration::from_millis(2_000 + 2 * i as u64), i as u64);
        }
        self.pending = self.burst;
    }
}

impl Component for Bursts {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.arm(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
        self.pending -= 1;
        if self.pending == 0 {
            self.arm(ctx);
        }
    }
}

/// Endless ping-pong across the network model: every delivery triggers a
/// reply to the sender.
struct Echo {
    peer: Option<Addr>,
}

#[derive(Debug)]
struct Token;

impl Component for Echo {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(peer) = self.peer {
            ctx.send(peer, Token);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, _msg: AnyMsg) {
        ctx.send(from, Token);
    }
}

fn bench_timer_events(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_kernel/timers");
    const EVENTS: u64 = 100_000;
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("100k_timer_events", |b| {
        b.iter(|| {
            let mut w = World::new(Config::default().seed(1).max_events(EVENTS));
            let n = w.add_node("n");
            w.add_component(n, "storm", TimerStorm { fanout: 64 });
            w.run_until_quiescent();
            std::hint::black_box(w.events_processed())
        })
    });
    g.finish();
}

fn bench_timer_bursts(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_kernel/bursts");
    const EVENTS: u64 = 100_000;
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("100k_events_in_512_timer_bursts", |b| {
        b.iter(|| {
            let mut w = World::new(Config::default().seed(3).max_events(EVENTS));
            let n = w.add_node("n");
            let bursts = Bursts {
                burst: 512,
                pending: 0,
            };
            w.add_component(n, "bursts", bursts);
            w.run_until_quiescent();
            std::hint::black_box(w.events_processed())
        })
    });
    g.finish();
}

fn bench_network_ring(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_kernel/network");
    const EVENTS: u64 = 100_000;
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("100k_routed_messages", |b| {
        b.iter(|| {
            let mut w = World::new(Config::default().seed(2).max_events(EVENTS));
            // Eight ping-pong pairs across sixteen nodes: every event is a
            // routed cross-node delivery that immediately causes another.
            for i in 0..8 {
                let na = w.add_node(&format!("a{i}"));
                let nb = w.add_node(&format!("b{i}"));
                let pong = w.add_component(nb, "pong", Echo { peer: None });
                w.add_component(na, "ping", Echo { peer: Some(pong) });
            }
            w.run_until_quiescent();
            std::hint::black_box(w.events_processed())
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_timer_events, bench_timer_bursts, bench_network_ring
}
criterion_main!(benches);
