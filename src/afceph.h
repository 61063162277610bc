#pragma once

/// AFCeph — reproduction of "Performance Optimization for All Flash
/// Scale-out Storage" (IEEE CLUSTER 2016). Umbrella header: pulls in the
/// public API. Most users need only core::ClusterSim + core::Profile +
/// client::WorkloadSpec:
///
///   afc::core::ClusterConfig cfg;
///   cfg.profile = afc::core::Profile::afceph();
///   afc::core::ClusterSim cluster(cfg);
///   auto r = cluster.run(afc::client::WorkloadSpec::rand_write(4096, 8));
///   printf("%.0f IOPS @ %.1f ms\n", r.write_iops, r.write_lat_ms);

#include "client/rbd.h"
#include "client/runner.h"
#include "client/workload.h"
#include "cluster/crush.h"
#include "cluster/map.h"
#include "common/histogram.h"
#include "common/payload.h"
#include "common/rng.h"
#include "common/stage_names.h"
#include "common/table.h"
#include "common/timeseries.h"
#include "core/cluster_sim.h"
#include "core/profile.h"
#include "core/report.h"
#include "core/trace.h"
#include "device/nvram.h"
#include "device/ssd.h"
#include "ec/codec.h"
#include "ec/gf256.h"
#include "ec/layout.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "fs/filestore.h"
#include "fs/journal.h"
#include "kv/db.h"
#include "net/messenger.h"
#include "osd/recovery.h"
#include "osd/osd.h"
#include "osd/qos.h"
#include "sim/channel.h"
#include "sim/cpu.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "solidfire/solidfire.h"
#include "workload/arrival.h"
#include "workload/engine.h"
#include "workload/population.h"
