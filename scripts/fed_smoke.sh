#!/usr/bin/env bash
# Three-daemon federation smoke over loopback TCP: a meta-manager
# (all.role meta), one cluster manager logged into it (fed.meta, fed.cluster
# site-a) and one data server under that manager, each its own
# scalla_daemon process. Once `stats` at the meta counts all three nodes,
# scalla_cli writes /store/hello through the manager, reads it back
# through the meta, checks `fed locate` at the meta, and checks that the
# data server refuses `fed locate` at once. Finally every daemon gets
# SIGTERM and must exit 0 (a ThreadSanitizer build exits non-zero when it
# reported a race).
#
#   scripts/fed_smoke.sh <dir holding scalla_daemon and scalla_cli>
#
# Endpoints listen on 127.0.0.1:31000+addr, above the ctest port bands
# (16000-29999) and below the usual ephemeral range. Every wait is bounded,
# and a trap kills any daemon still running when the script exits.
set -euo pipefail

BIN="${1:?usage: $0 <dir holding scalla_daemon and scalla_cli>}"
BASE_PORT=31000
WORK=$(mktemp -d)
PIDS=()

cleanup() {
  for pid in "${PIDS[@]}"; do kill -KILL "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "fed smoke: $*"
  for log in "$WORK"/*.log; do
    [[ -e "$log" ]] || continue
    echo "--- $(basename "$log")"
    tail -n 20 "$log"
  done
  exit 1
}

cat > "$WORK/meta.cf" <<'EOF'
all.role meta
all.addr 1
EOF
cat > "$WORK/manager.cf" <<'EOF'
all.role manager
all.addr 10
all.export /store
fed.meta 1
fed.cluster site-a
EOF
cat > "$WORK/server.cf" <<'EOF'
all.role server
all.addr 11
all.manager 10
all.export /store
EOF

names=(meta manager server)

# Every CLI call binds its own endpoint, so each takes a fresh address.
NEXT_ADDR=900
cli() {
  local addr=$NEXT_ADDR
  NEXT_ADDR=$((NEXT_ADDR + 2))  # `fed locate` also binds addr + 1
  timeout 40 "$BIN/scalla_cli" --base-port "$BASE_PORT" --addr "$addr" "$@"
}

for name in "${names[@]}"; do
  "$BIN/scalla_daemon" "$WORK/$name.cf" --base-port "$BASE_PORT" > "$WORK/$name.log" 2>&1 &
  PIDS+=($!)
done

# Logins retry, so start-up order is soft. Both have settled once the
# meta's stats tree holds all three nodes, which needs the manager logged
# into the meta and the server into the manager; wait at most 20 s.
settled=0
for _ in $(seq 50); do
  for i in "${!PIDS[@]}"; do
    kill -0 "${PIDS[$i]}" 2>/dev/null || fail "${names[$i]} exited during start-up"
  done
  stat=$(cli --head 1 stats 2>/dev/null) || true
  if [[ "$stat" == "cluster: 3 node(s)"* ]]; then
    settled=1
    break
  fi
  sleep 0.2
done
(( settled )) || fail "logins did not settle"

out=$(cli --head 10 put /store/hello "hello federation") || fail "put: $out"
echo "$out"
out=$(cli --head 1 get /store/hello) || fail "get through the meta: $out"
[[ "$out" == "hello federation" ]] || fail "get through the meta read '$out'"
echo "get /store/hello through the meta: ok"
out=$(cli --head 1 fed locate /store/hello) || fail "fed locate: $out"
echo "$out"
[[ "$out" == *"cluster 'site-a'"* ]] || fail "fed locate did not name site-a"
# A data server has no members to name: it refuses at once with the
# error's name instead of leaving the CLI to time out.
if out=$(cli --head 11 fed locate /store/hello 2>&1); then
  fail "fed locate at the server succeeded: $out"
fi
echo "$out"
[[ "$out" == *"invalid argument"* ]] || fail "fed locate at the server: '$out'"

# SIGTERM each daemon and wait (at most 20 s each) for a clean exit.
for i in "${!PIDS[@]}"; do kill -TERM "${PIDS[$i]}"; done
for i in "${!PIDS[@]}"; do
  pid=${PIDS[$i]}
  for _ in $(seq 200); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  kill -0 "$pid" 2>/dev/null && fail "${names[$i]} did not exit on SIGTERM"
  status=0
  wait "$pid" || status=$?
  (( status == 0 )) || fail "${names[$i]} exited with status $status"
done
PIDS=()
echo "fed smoke: meta, manager and server exited 0"
