// Golden event order for the messenger. One scenario mixes every transport
// mechanism (Nagle on unbatched traffic, egress batching, sharded receive,
// a dropped frame and its resend, a blackholed receiver, replies on the
// reverse directions) and logs every delivery as "time conn id" plus the
// simulation's final event count. The golden log was captured from the
// build whose pipelines were coroutines parked on a Channel for the whole
// run; any change to how the pipelines run must reproduce it exactly.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "net/messenger.h"
#include "net/profile.h"

namespace afc::net {
namespace {

struct Logger : Receiver {
  Logger(sim::Simulation& s, std::vector<std::string>& l,
         std::map<const Connection*, std::string>& n)
      : sim(s), log(l), names(n) {}
  sim::Simulation& sim;
  std::vector<std::string>& log;
  std::map<const Connection*, std::string>& names;
  Time handler_delay = 0;

  sim::CoTask<void> on_message(Message m) override {
    std::string line = std::to_string(sim.now());
    line += ' ';
    line += names.at(m.reply_to->reverse());
    line += ' ';
    line += std::to_string(m.type);
    log.push_back(std::move(line));
    // Odd ids are answered on the reverse direction; even ids hold the
    // receiver briefly, back-pressuring the delivering pipeline or shard.
    if (m.type % 2 == 1 && m.type < 10000) {
      Message r;
      r.type = m.type + 10000;
      r.size = 300;
      m.reply_to->send(std::move(r));
    } else if (handler_delay > 0) {
      co_await sim::delay(sim, handler_delay);
    }
  }
};

Message msg(int type, std::uint64_t size) {
  Message m;
  m.type = type;
  m.size = size;
  return m;
}

std::string mixed_transport_log() {
  sim::Simulation sim;
  std::vector<std::string> log;
  std::map<const Connection*, std::string> names;
  Node na{sim, "a", Node::Config{2, 1250 * kMiB}};
  Node nb{sim, "b", Node::Config{2, 1250 * kMiB}};
  Node nc{sim, "c", Node::Config{2, 1250 * kMiB}};
  Node nd{sim, "d", Node::Config{2, 1250 * kMiB}};
  Logger la{sim, log, names}, lb{sim, log, names}, lc{sim, log, names}, ld{sim, log, names};
  lb.handler_delay = 3 * kMicrosecond;
  lc.handler_delay = 5 * kMicrosecond;
  Messenger ma{sim, na, la, "a"};
  Messenger mb{sim, nb, lb, "b"};
  Messenger mc{sim, nc, lc, "c"};
  Messenger md{sim, nd, ld, "d"};

  Connection::Config nagle;
  nagle.nagle = true;
  Connection::Config batched;
  batched.batch = true;
  batched.batch_max_delay = 15 * kMicrosecond;
  Connection* conns[] = {
      ma.connect(mb, nagle),                    // c0: unbatched, Nagle on runts
      ma.connect(mb, batched),                  // c1: egress batching
      ma.connect(mc, NetProfile::sharded()),    // c2: sharded receive at c (and a)
      mb.connect(mc, Connection::Config{}),     // c3: lossy link
      ma.connect(md, Connection::Config{}),     // c4: blackholed receiver
  };
  for (int i = 0; i < 5; i++) {
    const std::string index = std::to_string(i);
    const std::string name = "c" + index;
    names[conns[i]] = name;
    names[conns[i]->reverse()] = name + "r";
  }

  conns[3]->set_fault(Connection::Fault{.drop_p = 1.0}, /*seed=*/5);
  md.set_blackhole(true);
  sim.schedule_after(250 * kMicrosecond, [c = conns[3]] { c->clear_fault(); });
  sim.schedule_after(400 * kMicrosecond, [m = &md] { m->set_blackhole(false); });

  int ids[] = {0, 100, 200, 300, 400};
  auto send = [&](int i, std::uint64_t size) { conns[i]->send(msg(ids[i]++, size)); };
  sim::spawn_fn([&]() -> sim::CoTask<void> {
    for (int k = 0; k < 12; k++) {
      send(0, k % 3 == 0 ? 4246 : 700);
      if (k % 2 == 0) {
        send(1, 600);
        send(1, 900);
        send(1, 1200);
      }
      send(2, 2000 + 100 * std::uint64_t(k));
      if (k % 4 == 1) send(3, 4096);
      send(4, 1000);
      co_await sim::delay(sim, k % 5 == 0 ? 150 * kMicrosecond : 20 * kMicrosecond);
    }
  });
  sim.run();

  std::string out;
  for (const auto& line : log) out += line + "\n";
  const std::string events = std::to_string(sim.executed_events());
  out += "events " + events + "\n";
  for (Messenger* m : {&ma, &mb, &mc, &md}) m->close_all();
  sim.run();
  return out;
}

TEST(MessengerOrder, MixedTransportMatchesGoldenLog) {
  const std::string golden = R"(84674 c1 100
88019 c2 200
158812 c1 101
158812 c1 102
237602 c2 201
245842 c1r 10101
254674 c1 103
309280 c2 202
323830 c2r 10201
328812 c1 104
331812 c1 105
339179 c1r 10103
381034 c2 203
404408 c1 106
407408 c1 107
407408 c1 108
416317 c1r 10105
437245 c3 300
451687 c4 404
452865 c2 204
467262 c2r 10203
478504 c1 109
478504 c1 110
481504 c1 111
491913 c1r 10107
517245 c3 301
523594 c4 405
524772 c2 205
552600 c1 112
555600 c1 113
555600 c1 114
563009 c1r 10109
590370 c3 302
595577 c4 406
596755 c2 206
601653 c3r 10301
608062 c4r 10405
611000 c2r 10205
626696 c1 115
626696 c1 116
629696 c1 117
633274 c1r 10111
667636 c4 407
668814 c2 207
703539 c1r 10113
739772 c4 408
740950 c2 208
752104 c4r 10407
755042 c2r 10207
776533 c1r 10115
776533 c1r 10117
811984 c4 409
813162 c2 209
884272 c4 410
885450 c2 210
896452 c4r 10409
899390 c2r 10209
956637 c4 411
957815 c2 211
1041105 c4r 10411
1044043 c2r 10211
3087419 c0 0
3157953 c0 1
3228487 c0 2
3242421 c0r 10001
3301726 c0 3
3372260 c0 4
3386194 c0r 10003
3442794 c0 5
3516033 c0 6
3527262 c0r 10005
3586567 c0 7
3657101 c0 8
3671035 c0r 10007
3730340 c0 9
3800874 c0 10
3814808 c0r 10009
3871408 c0 11
3955876 c0r 10011
events 456
)";
  EXPECT_EQ(mixed_transport_log(), golden);
}

}  // namespace
}  // namespace afc::net
