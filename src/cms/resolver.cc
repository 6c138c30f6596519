#include "cms/resolver.h"

#include <utility>

namespace scalla::cms {

Resolver::Resolver(const CmsConfig& config, util::Clock& clock, Membership& membership,
                   LocationCache& cache, FastResponseQueue& respq,
                   SelectionPolicy& selection, QuerySender sendQuery)
    : config_(config),
      clock_(clock),
      membership_(membership),
      cache_(cache),
      respq_(respq),
      selection_(selection),
      sendQuery_(std::move(sendQuery)) {}

bool Resolver::RedirectFrom(const LocInfo& info, const LocateOptions& options,
                            LocateResult* out) {
  // Redirect targets must be selectable: online AND neither suspended
  // (overload) nor draining (operator). Suspended/drained holders keep
  // their cache bits — they come straight back once readmitted.
  const ServerSet selectable = membership_.SelectableSet();
  ServerSet avoid;
  if (options.avoid >= 0) avoid.set(options.avoid);

  // Writers need a write-capable destination.
  ServerSet have = info.have & selectable;
  ServerSet pending = info.pending & selectable;
  if (options.mode == AccessMode::kWrite) {
    ServerSet writable;
    for (ServerSlot s = have.first(); s >= 0; s = have.next(s)) {
      const auto m = membership_.InfoOf(s);
      if (m && m->allowWrite) writable.set(s);
    }
    have = writable;
    ServerSet writablePending;
    for (ServerSlot s = pending.first(); s >= 0; s = pending.next(s)) {
      const auto m = membership_.InfoOf(s);
      if (m && m->allowWrite) writablePending.set(s);
    }
    pending = writablePending;
  }

  // Prefer servers that already have the file online over ones staging it.
  if (!have.empty()) {
    const ServerSlot target = selection_.Choose(have, avoid, membership_);
    *out = LocateResult{LocateStatus::kRedirect, target, false, Duration::zero()};
    return true;
  }
  if (!pending.empty()) {
    const ServerSlot target = selection_.Choose(pending, avoid, membership_);
    *out = LocateResult{LocateStatus::kRedirect, target, true, Duration::zero()};
    return true;
  }
  return false;
}

void Resolver::Park(const LocRef& ref, AccessMode mode, ServerSlot avoid,
                    LocateCallback done) {
  const Duration fullDelay = config_.deadline;
  if (!config_.fastResponse) {
    // Ablation (E07): without the fast response queue every un-cached
    // request pays the full delay before retrying.
    {
      std::lock_guard lock(statsMu_);
      ++stats_.fullDelays;
    }
    done(LocateResult{LocateStatus::kWait, -1, false, fullDelay});
    return;
  }
  // Step 4: add the client to the fast response queue (R_r or R_w) and
  // store the anchor reference back into the location object. The waiter
  // translates the queue outcome into a client-visible result.
  const RespSlotRef existing = cache_.GetRespSlot(ref, mode);
  auto waiter = [done, fullDelay](const RespOutcome& outcome) {
    if (outcome.status == RespStatus::kRedirect) {
      done(LocateResult{LocateStatus::kRedirect, outcome.server, outcome.pending,
                        Duration::zero()});
    } else {
      done(LocateResult{LocateStatus::kWait, -1, false, fullDelay});
    }
  };
  const auto slot = respq_.Add(existing, std::move(waiter), avoid);
  if (!slot.has_value()) {
    // "If no available entries exist, the client is asked to wait a full
    // time period and retry the operation."
    {
      std::lock_guard lock(statsMu_);
      ++stats_.fullDelays;
    }
    done(LocateResult{LocateStatus::kWait, -1, false, fullDelay});
    return;
  }
  cache_.SetRespSlot(ref, mode, *slot);
}

void Resolver::Locate(const std::string& path, const LocateOptions& options,
                      LocateCallback done) {
  {
    std::lock_guard lock(statsMu_);
    ++stats_.locates;
  }

  const ServerSet vm = membership_.EligibleFor(path);
  if (vm.empty()) {
    // No export prefix covers this path: no server could ever have it.
    {
      std::lock_guard lock(statsMu_);
      ++stats_.notFound;
    }
    done(LocateResult{LocateStatus::kNotFound, -1, false, Duration::zero()});
    return;
  }

  const ServerSet offline = membership_.OfflineSet();
  auto fetch = cache_.Lookup(path, vm, offline, LocationCache::AddPolicy::kCreate);

  if (!fetch.found) {
    // kCreate could not cache the entry (byte budget exhausted with
    // nothing force-expirable, or an empty path slipped through). Without
    // a location object there is nowhere to park the client or record
    // responses, so ask it to wait a full period and retry.
    {
      std::lock_guard lock(statsMu_);
      ++stats_.fullDelays;
    }
    done(LocateResult{LocateStatus::kWait, -1, false, config_.deadline});
    return;
  }

  bool mustQuery = fetch.created;
  if (options.refresh && !fetch.created) {
    // Client recovery (section III-C1): requery all relevant servers and
    // avoid the failing one when vectoring. Logically a new request.
    // Refresh MUST run before RemoveLocation: removing the failing
    // server's claim can empty every vector, which hides the entry and
    // invalidates fetch.ref — Refresh would then see a stale reference
    // and bounce the client into a needless retry.
    if (cache_.Refresh(fetch.ref, vm, clock_.Now() + config_.deadline)) {
      if (options.avoid >= 0) cache_.RemoveLocation(path, options.avoid);
      fetch.info = LocInfo{ServerSet::None(), ServerSet::None(), vm};
      mustQuery = true;
    } else {
      // Reference went stale under us: ask the client to retry so
      // processing restarts from a consistent state (section III-B1).
      done(LocateResult{LocateStatus::kRetry, -1, false, Duration::zero()});
      return;
    }
  }

  // Step 3: an online server already has (or is staging) the file.
  LocateResult redirect;
  if (!mustQuery && RedirectFrom(fetch.info, options, &redirect)) {
    {
      std::lock_guard lock(statsMu_);
      ++stats_.redirects;
    }
    done(std::move(redirect));
    return;
  }

  // Step 2: nothing known and nothing left to ask.
  if (fetch.info.query.empty() && !mustQuery) {
    if (!fetch.deadlineActive) {
      {
        std::lock_guard lock(statsMu_);
        ++stats_.notFound;
      }
      done(LocateResult{LocateStatus::kNotFound, -1, false, Duration::zero()});
      return;
    }
    if (config_.deadlineSync) {
      // An active deadline implies another thread's queries are in
      // flight; defer past the deadline via the queue (section III-C2).
      {
        std::lock_guard lock(statsMu_);
        ++stats_.deferrals;
      }
      Park(fetch.ref, options.mode, options.avoid, std::move(done));
      return;
    }
    // Ablation (E10): without deadline synchronization this client cannot
    // tell that queries are outstanding, so it re-issues the whole flood.
    Park(fetch.ref, options.mode, options.avoid, std::move(done));
    const ServerSet toQuery = vm & membership_.OnlineSet();
    cache_.BeginQuery(fetch.ref, toQuery, clock_.Now() + config_.deadline);
    if (!toQuery.empty()) {
      {
        std::lock_guard lock(statsMu_);
        ++stats_.queriesSent;
        stats_.queryMessages += static_cast<std::size_t>(toQuery.count());
      }
      sendQuery_(toQuery, path, LocationCache::HashOf(path), options.mode);
    }
    return;
  }

  // Steps 4-6: park the client first so a racing response cannot slip
  // past, then flood the still-unqueried servers — but only if no other
  // thread already did (deadline synchronization, section III-C2; the
  // E10 ablation lifts the restriction).
  const bool deadlineAllows =
      mustQuery || !fetch.deadlineActive || !config_.deadlineSync;
  Park(fetch.ref, options.mode, options.avoid, std::move(done));

  if (!deadlineAllows) {
    std::lock_guard lock(statsMu_);
    ++stats_.deferrals;
    return;
  }

  const ServerSet toQuery = fetch.info.query & membership_.OnlineSet();
  // Step 6: V_q keeps only the servers that could not be queried.
  cache_.BeginQuery(fetch.ref, toQuery, clock_.Now() + config_.deadline);
  if (!toQuery.empty()) {
    {
      std::lock_guard lock(statsMu_);
      ++stats_.queriesSent;
      stats_.queryMessages += static_cast<std::size_t>(toQuery.count());
    }
    sendQuery_(toQuery, path, LocationCache::HashOf(path), options.mode);
  }
}

void Resolver::OnHave(const std::string& path, std::uint32_t hash, ServerSlot from,
                      bool pending, bool allowWrite) {
  const auto update = cache_.AddLocation(path, hash, from, pending, allowWrite);
  if (!update.found) return;  // entry expired; parked clients will retry
  // A suspended/draining holder still updates the cache, but must not be
  // handed to parked clients; the sweep retries them elsewhere.
  if (!membership_.IsSelectable(from)) return;
  std::size_t released = 0;
  if (update.releaseRead.IsSet()) {
    released += respq_.Release(update.releaseRead, from, pending);
  }
  if (update.releaseWrite.IsSet()) {
    released += respq_.Release(update.releaseWrite, from, pending);
  }
  if (released > 0) {
    std::lock_guard lock(statsMu_);
    stats_.fastRedirects += released;
  }
}

void Resolver::OnGone(const std::string& path, ServerSlot from) {
  cache_.RemoveLocation(path, from);
}

Resolver::Stats Resolver::GetStats() const {
  std::lock_guard lock(statsMu_);
  return stats_;
}

void Resolver::ExportMetrics(obs::MetricsSnapshot& snap) const {
  const Stats s = GetStats();
  snap.AddCounter("resolver.locates", s.locates);
  snap.AddCounter("resolver.redirects", s.redirects);
  snap.AddCounter("resolver.fast_redirects", s.fastRedirects);
  snap.AddCounter("resolver.not_found", s.notFound);
  snap.AddCounter("resolver.full_delays", s.fullDelays);
  snap.AddCounter("resolver.queries_sent", s.queriesSent);
  snap.AddCounter("resolver.query_messages", s.queryMessages);
  snap.AddCounter("resolver.deferrals", s.deferrals);
}

}  // namespace scalla::cms
