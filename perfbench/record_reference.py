"""Record the estimate-large losses that later commits are checked against.

    python3 perfbench/record_reference.py FIRST_SEED LAST_SEED

Solves every estimate-large case for each seed in [FIRST_SEED, LAST_SEED]
and writes the loss and the Gram condition estimate (which scales the
check's tolerance) to perfbench/reference_losses.json. Run it only at a
commit whose solver is trusted; the file says which seeds are covered.
"""

import json
import sys

import run


def main() -> int:
    first, last = (int(a) for a in sys.argv[1:3])
    run.cap_blas_threads()
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    import workloads
    from tracing import Tracer

    reference = {}
    for seed in range(first, last + 1):
        workload = workloads.EstimateLarge(seed, run.OUT)
        workload.make_inputs()
        reference[str(seed)] = {
            case: {"loss": result.loss_value, "cond": result.gram_condition}
            for case, (_, result) in workload.run(Tracer().span).items()}
        print(seed, {c: v["loss"] for c, v in reference[str(seed)].items()}, flush=True)
    workloads.EstimateLarge.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
