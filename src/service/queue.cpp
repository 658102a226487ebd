#include "service/queue.hpp"

#include <cassert>

namespace iw::service {

Admission JobQueue::check(const std::string& client,
                          std::size_t total_points) const {
  Admission adm;
  const auto it = clients_.find(client);
  const std::size_t open_jobs = it == clients_.end() ? 0 : it->second.open_jobs;
  const std::size_t load = it == clients_.end() ? 0 : it->second.load;
  if (open_jobs >= limits_.max_jobs_per_client) {
    adm.error_code = "admission-jobs";
    adm.message = "client '" + client + "' already has " +
                  std::to_string(open_jobs) + " open jobs (limit " +
                  std::to_string(limits_.max_jobs_per_client) + ")";
    return adm;
  }
  if (total_points > limits_.max_points_per_client ||
      load > limits_.max_points_per_client - total_points) {
    adm.error_code = "admission-points";
    adm.message = "campaign of " + std::to_string(total_points) +
                  " points would put client '" + client + "' at " +
                  std::to_string(load + total_points) +
                  " queued points (limit " +
                  std::to_string(limits_.max_points_per_client) + ")";
    return adm;
  }
  adm.accepted = true;
  return adm;
}

void JobQueue::open(const std::string& client, std::uint64_t job, int priority,
                    std::size_t pending, std::size_t reserved) {
  assert(jobs_.find(job) == jobs_.end() && "job ids are unique");
  JobEntry& e = jobs_[job];
  e.client = client;
  e.priority = priority;
  e.seq = seq_++;
  e.pending = pending;
  e.reserved = reserved;
  ClientEntry& c = client_entry(client);
  c.open_jobs += 1;
  c.load += pending + reserved;
}

bool JobQueue::decide(Claim& out) {
  // Pass 1: the runnable client with the smallest lifetime charge (ties by
  // name — clients_ is an ordered map, so the scan order is the tiebreak).
  const ClientEntry* best_client = nullptr;
  const std::string* best_name = nullptr;
  for (const auto& [name, c] : clients_) {
    bool runnable = false;
    for (const auto& [id, e] : jobs_)
      if (e.client == name && e.pending > 0) {
        runnable = true;
        break;
      }
    if (!runnable) continue;
    if (best_client == nullptr || c.charged < best_client->charged) {
      best_client = &c;
      best_name = &name;
    }
  }
  if (best_client == nullptr) return false;
  // Pass 2: within the client, highest priority first, then admission order.
  JobEntry* best = nullptr;
  std::uint64_t best_id = 0;
  for (auto& [id, e] : jobs_) {
    if (e.client != *best_name || e.pending == 0) continue;
    if (best == nullptr || e.priority > best->priority ||
        (e.priority == best->priority && e.seq < best->seq)) {
      best = &e;
      best_id = id;
    }
  }
  assert(best != nullptr);
  out.job = best_id;
  out.slot = best->cursor;
  best->cursor += 1;
  best->pending -= 1;
  best->claimed += 1;
  client_entry(best->client).charged += 1;
  decisions_ += 1;
  return true;
}

void JobQueue::complete_claimed(std::uint64_t job) {
  JobEntry& e = entry(job);
  assert(e.claimed > 0);
  e.claimed -= 1;
  ClientEntry& c = client_entry(e.client);
  assert(c.load > 0);
  c.load -= 1;
}

void JobQueue::complete_reserved(std::uint64_t job, std::size_t count) {
  JobEntry& e = entry(job);
  assert(count <= e.reserved);
  e.reserved -= count;
  ClientEntry& c = client_entry(e.client);
  assert(count <= c.load);
  c.load -= count;
}

void JobQueue::promote_reserved(std::uint64_t job, std::size_t count) {
  JobEntry& e = entry(job);
  assert(count <= e.reserved);
  e.reserved -= count;
  e.pending += count;
}

std::size_t JobQueue::cancel(std::uint64_t job) {
  JobEntry& e = entry(job);
  const std::size_t reclaimed = e.pending + e.reserved;
  ClientEntry& c = client_entry(e.client);
  assert(reclaimed <= c.load);
  c.load -= reclaimed;
  e.pending = 0;
  e.reserved = 0;
  e.cancelled = true;
  return reclaimed;
}

std::size_t JobQueue::claimed(std::uint64_t job) const {
  const auto it = jobs_.find(job);
  return it == jobs_.end() ? 0 : it->second.claimed;
}

void JobQueue::close(std::uint64_t job) {
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return;
  assert(it->second.pending == 0 && it->second.claimed == 0 &&
         it->second.reserved == 0 && "close requires a drained job");
  ClientEntry& c = client_entry(it->second.client);
  assert(c.open_jobs > 0);
  c.open_jobs -= 1;
  jobs_.erase(it);
}

std::size_t JobQueue::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& [id, e] : jobs_) depth += e.pending;
  return depth;
}

std::size_t JobQueue::clients_active() const {
  std::size_t n = 0;
  for (const auto& [name, c] : clients_)
    if (c.open_jobs > 0) n += 1;
  return n;
}

std::size_t JobQueue::client_load(const std::string& client) const {
  const auto it = clients_.find(client);
  return it == clients_.end() ? 0 : it->second.load;
}

JobQueue::JobEntry& JobQueue::entry(std::uint64_t job) {
  const auto it = jobs_.find(job);
  assert(it != jobs_.end() && "unknown job id");
  return it->second;
}

JobQueue::ClientEntry& JobQueue::client_entry(const std::string& name) {
  return clients_[name];
}

}  // namespace iw::service
