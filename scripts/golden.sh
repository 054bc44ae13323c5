#!/usr/bin/env bash
# Golden-output harness for behavior-preserving datapath changes:
# regenerates the quick figure set at its fixed seeds and compares the
# sha256 digest of every output against the committed GOLDEN.sha256.
#
#   scripts/golden.sh            # verify against GOLDEN.sha256
#   scripts/golden.sh --update   # rewrite GOLDEN.sha256 from this tree
#
# The figures are deterministic in their seeds and byte-identical at
# any --jobs level (this script re-runs each one at --jobs 1 and 4 and
# fails on any byte difference from --jobs 2), so digest equality is
# a meaningful "the datapath still computes exactly the same results"
# check, not a flaky snapshot. A refactor that is supposed to preserve
# behavior must leave GOLDEN.sha256 untouched; a change that
# intentionally shifts results must regenerate it with --update and
# explain the delta in its commit message.
set -euo pipefail
cd "$(dirname "$0")/.."

FIGS=(fig3 fig9 fig10 fig11 fig12 scaling ablation ablation-backends ablation-wildcard scale table1 fig4 fig8b table4 fig13 extensions)
mode="verify"
[[ "${1:-}" == "--update" ]] && mode="update"

if [[ "$mode" == "update" ]]; then
    # Refuse to rewrite the digests while stale figure artifacts from a
    # previous run are sitting uncommitted in the tree: an --update that
    # silently coexists with leftover outputs makes it far too easy to
    # commit digests that do not correspond to this tree's code.
    artifacts=(TRACE_halo.json ABLATION_backends.json ABLATION_wildcard.json SCALE_flows.json)
    stale=()
    for f in "${artifacts[@]}"; do
        # Tracked-and-clean copies are fine; anything else (untracked,
        # ignored, or locally modified) is a leftover from a prior run.
        if [[ -e "$f" ]] && ! git diff --quiet HEAD -- "$f" 2>/dev/null; then
            stale+=("$f")
        elif [[ -e "$f" ]] && ! git ls-files --error-unmatch "$f" >/dev/null 2>&1; then
            stale+=("$f")
        fi
    done
    if (( ${#stale[@]} )); then
        echo "golden: refusing --update, stale figure outputs present: ${stale[*]}" >&2
        echo "golden: remove or commit them first (they are regenerated artifacts)" >&2
        exit 1
    fi
fi

echo "==> cargo build --release -p halo-bench"
cargo build --release -p halo-bench

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
bin="$PWD/target/release/figures"
for fig in "${FIGS[@]}"; do
    echo "==> figures --quick --jobs 2 $fig"
    # Run from the scratch dir: some figures (ablation-backends) also
    # drop a JSON artifact into the working directory, and those must
    # not land in the repo root during a golden run.
    (cd "$out" && "$bin" --quick --jobs 2 "$fig" > "$out/$fig.txt")
done

for fig in "${FIGS[@]}"; do
    for jobs in 1 4; do
        echo "==> figures --quick --jobs $jobs $fig (must match --jobs 2)"
        (cd "$out" && "$bin" --quick --jobs "$jobs" "$fig" > "$out/$fig.j$jobs.txt")
        if ! cmp -s "$out/$fig.txt" "$out/$fig.j$jobs.txt"; then
            echo "golden: $fig output differs between --jobs 2 and --jobs $jobs" >&2
            diff "$out/$fig.txt" "$out/$fig.j$jobs.txt" | head -20 >&2 || true
            exit 1
        fi
    done
done

if [[ "$mode" == "update" ]]; then
    (cd "$out" && sha256sum "${FIGS[@]/%/.txt}") > GOLDEN.sha256
    echo "golden: wrote $(wc -l < GOLDEN.sha256) digests to GOLDEN.sha256"
else
    cp GOLDEN.sha256 "$out/"
    (cd "$out" && sha256sum -c GOLDEN.sha256)
    echo "golden: all quick figure outputs match GOLDEN.sha256"
fi
