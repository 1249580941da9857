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

/// Keeps `window` bulk transfers in flight, spread round-robin over its
/// sinks: each acknowledged transfer is replaced by a new one.
struct Pump {
    sinks: Vec<Addr>,
    window: u64,
    sent: u64,
}

impl Pump {
    fn send_next(&mut self, ctx: &mut Ctx<'_>) {
        let to = self.sinks[self.sent as usize % self.sinks.len()];
        // Unequal sizes, so completions do not all fall on one instant.
        let bytes = 2_000_000 + (self.sent % 61) * 100_000;
        ctx.send_bulk(to, bytes, Token);
        self.sent += 1;
    }
}

impl Component for Pump {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.window {
            self.send_next(ctx);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, _msg: AnyMsg) {
        self.send_next(ctx);
    }
}

/// Acknowledges every transfer it receives.
struct Sink;

impl Component for Sink {
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

fn bench_flows(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_kernel/flows");
    const EVENTS: u64 = 20_000;
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("740_active_10_classes", |b| {
        b.iter(|| {
            // gridbench `stagein_flow`'s shape: one 60 MB/s uplink in front
            // of ten 8 MB/s regional links, one route (= one waterfill
            // class) per region, and 740 flows sharing the uplink. Every
            // start and every completion refreshes all of them and re-arms
            // the one `FlowDone` event.
            let mut w = World::new(Config::default().seed(4).max_events(EVENTS));
            let src = w.add_node("src");
            let uplink = w.network_mut().add_flow_link("uplink", 60e6, 0.020);
            let mut sinks = Vec::new();
            for r in 0..10 {
                let node = w.add_node(&format!("sink{r}"));
                let region = w
                    .network_mut()
                    .add_flow_link(&format!("region{r}"), 8e6, 0.010);
                w.network_mut().set_flow_route(src, node, &[uplink, region]);
                sinks.push(w.add_component(node, "sink", Sink));
            }
            let pump = Pump {
                sinks,
                window: 740,
                sent: 0,
            };
            w.add_component(src, "pump", pump);
            w.run_until_quiescent();
            std::hint::black_box((w.events_processed(), w.network_mut().flows_active()))
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_timer_events, bench_timer_bursts, bench_network_ring, bench_flows
}
criterion_main!(benches);
