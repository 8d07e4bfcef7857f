#include "dist/runner.h"

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "dist/node.h"
#include "dist/transport.h"

namespace spire::dist {

namespace {

int ClampNodes(int num_nodes, std::size_t num_sites) {
  const int max_nodes = static_cast<int>(num_sites);
  return std::max(1, std::min(num_nodes, max_nodes));
}

}  // namespace

Result<serve::Workload> ToWorkload(const TransferTrace& trace) {
  serve::Workload workload;
  workload.num_epochs = trace.num_epochs;
  std::size_t next_location = 0;
  for (const SiteTrace& site : trace.sites) {
    serve::SiteWorkload sw;
    sw.name = site.name;
    sw.registry = site.layout.registry;
    sw.epochs = site.epochs;
    sw.total_readings = site.total_readings;
    sw.location_offset = static_cast<LocationId>(next_location);
    next_location += sw.registry.num_locations();
    if (next_location >= kUnknownLocation) {
      return Status::InvalidArgument(
          "combined site location spaces overflow LocationId");
    }
    workload.num_epochs = std::max(
        workload.num_epochs, static_cast<Epoch>(sw.epochs.size()));
    workload.sites.push_back(std::move(sw));
  }
  return workload;
}

EventStream RunDistReference(const serve::Workload& workload,
                             const std::vector<TransferHop>& hops,
                             const PipelineOptions& options) {
  std::vector<std::unique_ptr<SpirePipeline>> pipelines;
  pipelines.reserve(workload.sites.size());
  for (const serve::SiteWorkload& site : workload.sites) {
    pipelines.push_back(
        std::make_unique<SpirePipeline>(&site.registry, options));
  }

  // Captured objects per hop, and hop indexes by departure / arrival
  // epoch (schedule order) — the in-memory form of the wire handoff.
  std::vector<std::vector<ObjectHandoff>> captured(hops.size());
  std::map<std::pair<Epoch, int>, std::vector<std::size_t>> departures;
  std::map<std::pair<Epoch, int>, std::vector<std::size_t>> arrivals;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (hops[i].depart_epoch >= workload.num_epochs) continue;
    departures[{hops[i].depart_epoch, hops[i].from_site}].push_back(i);
    if (hops[i].arrive_epoch < workload.num_epochs) {
      arrivals[{hops[i].arrive_epoch, hops[i].to_site}].push_back(i);
    }
  }

  EventStream out;
  EventStream scratch;
  for (Epoch epoch = 0; epoch < workload.num_epochs; ++epoch) {
    for (std::size_t site = 0; site < workload.sites.size(); ++site) {
      const serve::SiteWorkload& sw = workload.sites[site];
      SpirePipeline& pipeline = *pipelines[site];

      auto arriving = arrivals.find({epoch, static_cast<int>(site)});
      if (arriving != arrivals.end()) {
        for (std::size_t hop_index : arriving->second) {
          for (const ObjectHandoff& handoff : captured[hop_index]) {
            pipeline.ImplantHandoff(handoff);
          }
        }
      }
      auto departing = departures.find({epoch, static_cast<int>(site)});
      if (departing != departures.end()) {
        for (std::size_t hop_index : departing->second) {
          pipeline.StageDeparture(hops[hop_index].objects,
                                  &captured[hop_index]);
        }
      }

      EpochReadings readings =
          epoch < static_cast<Epoch>(sw.epochs.size())
              ? sw.epochs[static_cast<std::size_t>(epoch)]
              : EpochReadings{};
      scratch.clear();
      pipeline.ProcessEpoch(epoch, std::move(readings), &scratch);
      serve::RemapLocations(sw.location_offset, &scratch);
      out.insert(out.end(), scratch.begin(), scratch.end());
    }
  }
  for (std::size_t site = 0; site < workload.sites.size(); ++site) {
    scratch.clear();
    pipelines[site]->Finish(workload.num_epochs, &scratch);
    serve::RemapLocations(workload.sites[site].location_offset, &scratch);
    out.insert(out.end(), scratch.begin(), scratch.end());
  }
  return out;
}

DistResult RunDistLoopback(const serve::Workload& workload,
                           const std::vector<TransferHop>& hops,
                           DistOptions options) {
  options.num_nodes = ClampNodes(options.num_nodes, workload.sites.size());
  const int num_nodes = options.num_nodes;

  std::vector<std::unique_ptr<Conn>> coordinator_ends;
  std::vector<std::unique_ptr<Conn>> node_ends;
  std::vector<Conn*> conns;
  for (int n = 0; n < num_nodes; ++n) {
    auto [coordinator_end, node_end] = MakeLoopbackPair();
    conns.push_back(coordinator_end.get());
    coordinator_ends.push_back(std::move(coordinator_end));
    node_ends.push_back(std::move(node_end));
  }

  std::vector<Status> node_status(static_cast<std::size_t>(num_nodes));
  std::vector<std::thread> node_threads;
  for (int n = 0; n < num_nodes; ++n) {
    node_threads.emplace_back([&, n] {
      NodeConfig config;
      config.node_id = n;
      config.sites =
          SitesOfNode(n, static_cast<int>(workload.sites.size()), num_nodes);
      config.workload = &workload;
      config.pipeline = options.pipeline;
      Conn* conn = node_ends[static_cast<std::size_t>(n)].get();
      node_status[static_cast<std::size_t>(n)] = RunDistNode(config, conn);
      conn->Close();
    });
  }

  DistResult result = RunDistCoordinator(workload, hops, options, conns);
  for (Conn* conn : conns) conn->Close();
  for (std::thread& thread : node_threads) thread.join();

  if (result.status.ok()) {
    for (const Status& status : node_status) {
      if (!status.ok()) {
        result.status = status;
        result.events.clear();
        break;
      }
    }
  }
  return result;
}

DistResult RunDistProcesses(const serve::Workload& workload,
                            const std::vector<TransferHop>& hops,
                            DistOptions options) {
  options.num_nodes = ClampNodes(options.num_nodes, workload.sites.size());
  const int num_nodes = options.num_nodes;

  DistResult result;
  std::vector<int> parent_fds;
  std::vector<pid_t> children;
  for (int n = 0; n < num_nodes; ++n) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      result.status = Status::Internal("socketpair failed");
      break;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      result.status = Status::Internal("fork failed");
      break;
    }
    if (pid == 0) {
      // Child: keep only this node's end, run the node, report via exit
      // status. _exit skips atexit handlers the parent still owns.
      ::close(sv[0]);
      for (int fd : parent_fds) ::close(fd);
      NodeConfig config;
      config.node_id = n;
      config.sites =
          SitesOfNode(n, static_cast<int>(workload.sites.size()), num_nodes);
      config.workload = &workload;
      config.pipeline = options.pipeline;
      Status status;
      {
        std::unique_ptr<Conn> conn = MakeFdConn(sv[1]);
        status = RunDistNode(config, conn.get());
      }
      ::_exit(status.ok() ? 0 : 1);
    }
    ::close(sv[1]);
    parent_fds.push_back(sv[0]);
    children.push_back(pid);
  }

  if (result.status.ok()) {
    std::vector<std::unique_ptr<Conn>> conn_owners;
    std::vector<Conn*> conns;
    for (int fd : parent_fds) {
      conn_owners.push_back(MakeFdConn(fd));
      conns.push_back(conn_owners.back().get());
    }
    result = RunDistCoordinator(workload, hops, options, conns);
    for (Conn* conn : conns) conn->Close();
  } else {
    for (int fd : parent_fds) ::close(fd);
  }

  for (pid_t pid : children) {
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, 0) < 0) {
      if (result.status.ok()) {
        result.status = Status::Internal("waitpid failed");
      }
      continue;
    }
    if (result.status.ok() &&
        !(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)) {
      result.status =
          Status::Internal("node process exited with an error");
      result.events.clear();
    }
  }
  return result;
}

}  // namespace spire::dist
