// §III throughput — the operational numbers behind the deployment: the
// telescope delivers >1M pps and the flow-detection module analyzes one
// hour of capture in ~20 minutes. google-benchmark microbenchmarks for the
// packet-path stages: wire parse, backscatter filter, flow tracking + TRW,
// trace decode, and the full detector.
#include <benchmark/benchmark.h>

#include "flow/detector.h"
#include "inet/behavior.h"
#include "net/wire.h"
#include "telescope/synthesizer.h"
#include "trace/trace.h"

namespace {

using namespace exiot;

Cidr scope() { return Cidr(Ipv4(44, 0, 0, 0), 8); }

/// A representative packet mix: Mirai SYNs, desktop SYNs, backscatter.
std::vector<net::Packet> make_mix(int n) {
  auto roster = inet::BehaviorRoster::standard();
  inet::PacketSynthesizer mirai(roster.iot_families[0], Ipv4(1, 2, 3, 4),
                                scope(), 1);
  inet::PacketSynthesizer ssh(roster.generic_families[0], Ipv4(5, 6, 7, 8),
                              scope(), 2);
  Rng rng(3);
  std::vector<net::Packet> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const TimeMicros ts = i * 100;
    switch (rng.next_below(4)) {
      case 0: ssh.make_probe_into(ts, out.emplace_back()); break;
      case 3: {
        net::Packet p = net::make_syn(ts, Ipv4(9, 9, 9, 9),
                                      Ipv4(44, 1, 1, 1), 80, 4000);
        p.flags = net::tcp_flags::kSyn | net::tcp_flags::kAck;
        out.push_back(p);
        break;
      }
      default: mirai.make_probe_into(ts, out.emplace_back()); break;
    }
  }
  return out;
}

void BM_WireParse(benchmark::State& state) {
  auto pkts = make_mix(1024);
  std::vector<std::vector<std::uint8_t>> wires;
  for (const auto& p : pkts) net::serialize_to(p, wires.emplace_back());
  std::size_t i = 0;
  for (auto _ : state) {
    auto parsed = net::parse(wires[i % wires.size()]);
    benchmark::DoNotOptimize(parsed);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireParse);

void BM_WireSerialize(benchmark::State& state) {
  auto pkts = make_mix(1024);
  std::vector<std::uint8_t> buffer;
  buffer.reserve(128);
  std::size_t i = 0;
  for (auto _ : state) {
    buffer.clear();
    benchmark::DoNotOptimize(
        net::serialize_to(pkts[i % pkts.size()], buffer));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireSerialize);

void BM_BackscatterFilter(benchmark::State& state) {
  auto pkts = make_mix(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::is_backscatter(pkts[i % pkts.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackscatterFilter);

void BM_FlowDetector(benchmark::State& state) {
  auto pkts = make_mix(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    flow::FlowDetector detector(flow::DetectorConfig{},
                                flow::DetectorEvents{});
    state.ResumeTiming();
    for (const auto& p : pkts) detector.process(p);
    detector.finish();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlowDetector)->Arg(1 << 14)->Arg(1 << 17);

void BM_TraceDecode(benchmark::State& state) {
  trace::TraceEncoder encoder;
  for (const auto& p : make_mix(4096)) encoder.add(p);
  const std::vector<std::uint8_t> bytes = encoder.finish();
  net::PacketBatch batch;
  batch.reserve(1024);
  for (auto _ : state) {
    trace::TraceDecoder decoder(bytes);
    std::size_t n = 0;
    for (;;) {
      batch.clear();
      const std::size_t got = decoder.next_batch(batch, 1024);
      if (got == 0) break;
      n += got;
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_TraceDecode);

void BM_Synthesizer(benchmark::State& state) {
  auto world = inet::WorldModel::standard(scope());
  inet::PopulationConfig config;
  auto pop = inet::Population::generate(config.scaled(0.05), world);
  for (auto _ : state) {
    telescope::TrafficSynthesizer synth(pop, scope());
    std::size_t n =
        synth.run(0, kMicrosPerHour, [](const net::Packet&) {});
    state.SetItemsProcessed(
        state.items_processed() + static_cast<std::int64_t>(n));
  }
}
BENCHMARK(BM_Synthesizer)->Unit(benchmark::kMillisecond);

/// The headline number: full detector over one synthesized telescope hour;
/// items/sec is directly comparable to the paper's 1M pps / "20 minutes
/// per hour of data".
void BM_EndToEndHour(benchmark::State& state) {
  auto world = inet::WorldModel::standard(scope());
  inet::PopulationConfig config;
  auto pop = inet::Population::generate(config.scaled(0.2), world);
  std::vector<net::Packet> hour;
  telescope::TrafficSynthesizer synth(pop, scope());
  synth.run(hours(12), hours(13),
            [&](const net::Packet& p) { hour.push_back(p); });
  for (auto _ : state) {
    flow::FlowDetector detector(flow::DetectorConfig{},
                                flow::DetectorEvents{});
    for (const auto& p : hour) detector.process(p);
    detector.end_of_hour(hours(13));
    benchmark::DoNotOptimize(detector.stats().scanners_detected);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(hour.size()));
  }
}
BENCHMARK(BM_EndToEndHour)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
