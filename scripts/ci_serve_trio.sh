# Shared CI plumbing for jobs that run real `repro serve` processes.
#
# Source this file (do not execute it):
#
#     source "$GITHUB_WORKSPACE/scripts/ci_serve_trio.sh"
#     serve_trio                       # mediator + S1 + S2 on demo ports
#     serve_wait 7401 7402 7403        # block until each accepts a frame
#     ... drive the endpoints ...
#                                      # cleanup + log dump on failure is
#                                      # installed on EXIT automatically
#
# For trios that need per-party flags (storage), start each endpoint
# with serve_party and wait on the ports explicitly:
#
#     serve_party mediator mediator
#     serve_party S1 source --party S1 --storage sqlite:s1.db
#     serve_wait 7401 7402
#
# Readiness is real, not a sleep: serve_wait retries a HELLO frame
# against every port until the endpoint answers with a well-formed
# frame, so a slow-importing process is waited on and a crashed one
# fails the job within the timeout, with its log dumped.

set -euo pipefail

_SERVE_PIDS=()

serve_cleanup() {
  local status=$?
  trap - EXIT
  if [ "${#_SERVE_PIDS[@]}" -gt 0 ]; then
    kill "${_SERVE_PIDS[@]}" 2>/dev/null || true
    wait "${_SERVE_PIDS[@]}" 2>/dev/null || true
  fi
  if [ "$status" -ne 0 ]; then
    echo "::group::endpoint logs"
    tail -n +1 serve-*.log 2>/dev/null || true
    echo "::endgroup::"
  fi
  exit "$status"
}
trap serve_cleanup EXIT

# serve_party LOGNAME ROLE [ARGS...] — start one endpoint in the
# background, logging to serve-LOGNAME.log in the current directory.
serve_party() {
  local logname=$1
  shift
  python -m repro serve "$@" > "serve-$logname.log" 2>&1 &
  _SERVE_PIDS+=("$!")
}

# serve_trio [EXTRA_ARGS...] — the standard demo fleet on the
# well-known ports; extra args are appended to every endpoint.
serve_trio() {
  serve_party mediator mediator "$@"
  serve_party S1 source --party S1 "$@"
  serve_party S2 source --party S2 "$@"
}

# serve_wait PORT [PORT...] — poll until every port answers a HELLO
# frame with a well-formed frame, or fail after SERVE_WAIT_SECS
# (default 60).  This is the readiness barrier: `sleep 2` races slow
# imports on loaded runners.
serve_wait() {
  python - "$@" <<'PY'
import os
import socket
import sys
import time

from repro.transport import codec

deadline = time.monotonic() + float(os.environ.get("SERVE_WAIT_SECS", "60"))
pending = [int(port) for port in sys.argv[1:]]
probe = codec.build_frame(
    codec.HELLO, codec.encode_value({"party": "ci-probe"})
)
while pending:
    port = pending[0]
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=2) as sock:
            sock.settimeout(5)
            sock.sendall(probe)
            header = b""
            while len(header) < codec.FRAME_HEADER_BYTES:
                chunk = sock.recv(codec.FRAME_HEADER_BYTES - len(header))
                if not chunk:
                    raise ConnectionError("closed mid-handshake")
                header += chunk
            codec.parse_frame_header(header)
    except (OSError, codec.CodecError):
        if time.monotonic() > deadline:
            print(f"endpoint on port {port} never became ready", file=sys.stderr)
            sys.exit(1)
        time.sleep(0.2)
        continue
    pending.pop(0)
print(f"endpoints ready on ports: {' '.join(sys.argv[1:])}")
PY
}
