"""The benchmark workloads: how each makes its inputs and runs one op.

Every workload draws its inputs from a fixed universe of members.  Member
``i`` is rebuilt from its index alone (``random.Random("<workload>/<i>")``
through ``preproj.randgen``), so the benchmark seed only chooses which
members a run uses (see ``run.select_pool``).  An op calls the package
through the namespace ``P`` of freshly imported ``preproj`` modules,
checks what it computed, and returns the material that is digested and
compared against the frozen digest of that member.
"""

import contextlib
import hashlib
import io
import json
import random


class CheckFailed(Exception):
    """An op computed something that contradicts a checked identity."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def digest(data):
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _a3(P):
    return P.quiver.double(
        P.quiver.Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    )


def _kronecker(P):
    return P.quiver.double(
        P.quiver.Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    )


def _quiver_for(P, index):
    """Even members live over A3, odd ones over the Kronecker quiver."""
    return ("A3", _a3(P)) if index % 2 == 0 else ("Kronecker", _kronecker(P))


def _max_prime(fps):
    return max(p for fp in fps for prof in fp.profiles for p, _ in prof.samples)


class D4Pairwise:
    """The paper's worked example through ``preproj example-d4``."""

    name = "d4-pairwise"
    universe = 1

    @staticmethod
    def generate(P, index):
        return {"zoo": P.d4.zoo()}

    @staticmethod
    def input_data(P, inputs):
        zoo = inputs["zoo"]
        return {k: P.serialize.module_to_data(m) for k, m in sorted(zoo.items())}

    @staticmethod
    def describe(P, inputs):
        zoo = inputs["zoo"]
        return {"pair": ["S4", "T"], "dims": [list(zoo["S4"].dim), list(zoo["T"].dim)]}

    @staticmethod
    def op(P, inputs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = P.cli.main(["example-d4", "--format", "json"])
        check(code == 0, f"example-d4 exited with {code}")
        data = json.loads(out.getvalue())
        pair = data["pairwise"]
        check(data["passed"] is True, "example-d4 reports passed: false")
        check(pair["passed"] is True, "pairwise identity failed")
        check(all(item["ok"] for item in data["identities"]), "identity failed")
        check(data["expansion"]["ok"] is True, "expansion failed")
        tables = {}
        for side in ("strata_fwd", "strata_bwd"):
            table = [[s["name"], s["chi_proj"]] for s in pair[side]]
            check(
                [chi for _, chi in table] == [-1, 1, 1, 1],
                f"{side} stratum table is {table}",
            )
            tables[side] = table
        material = {
            "passed": data["passed"],
            "identities": [[i["identity"], i["ok"]] for i in data["identities"]],
            "expansion": [data["expansion"]["left"], data["expansion"]["right"]],
            "pairwise": [pair["left"], pair["right"], pair["ext1_dim"]],
            "anchors": [
                [s["name"], s["anchor_chi"]]
                for side in ("strata_fwd", "strata_bwd")
                for s in pair[side]
            ],
            "tables": tables,
        }
        info = {"words": len(pair["words"]), "max_prime": max(pair["primes_used"])}
        return material, info


class DirsumSplit:
    """Fingerprints of a random direct sum and its split counts."""

    name = "dirsum-split"
    universe = 64
    validation_primes = (2, 3, 5, 7, 11, 13)

    @staticmethod
    def generate(P, index):
        """A pair built like acceptance test 07: per-vertex sum <= 3."""
        label, dq = _quiver_for(P, index)
        rng = random.Random(f"dirsum-split/{index}")
        make = P.randgen.random_nilpotent_module
        while True:
            left = make(dq, rng, steps=2, max_total=3)
            right = make(dq, rng, steps=2, max_total=2)
            if all(a + b <= 3 for a, b in zip(left.dim, right.dim)):
                return {"quiver": label, "left": left, "right": right}

    @staticmethod
    def input_data(P, inputs):
        return [P.serialize.module_to_data(inputs[k]) for k in ("left", "right")]

    @staticmethod
    def describe(P, inputs):
        return {
            "quiver": inputs["quiver"],
            "dims": [list(inputs["left"].dim), list(inputs["right"].dim)],
        }

    @classmethod
    def op(cls, P, inputs):
        flags, module = P.flags, P.module
        left, right = inputs["left"], inputs["right"]
        whole = module.direct_sum(left, right)
        fp_left = flags.fingerprint(left)
        fp_right = flags.fingerprint(right)
        fp_sum = flags.fingerprint(whole)
        split = [flags.split_chi_sum(fp_left, fp_right, w) for w in fp_sum.words]
        check(split == list(fp_sum.chi), "split chi sums differ from the sum's chi")
        rows = []
        for p in cls.validation_primes:
            try:
                lp = module.reduce_mod_p(left, p)
                rp = module.reduce_mod_p(right, p)
            except module.BadPrime:
                continue
            wp = module.direct_sum(lp, rp)
            split_memo, plain_memo = {}, {}
            totals = []
            for word in fp_sum.words:
                dist = flags.count_flags_by_splitting(lp, rp, word, memo=split_memo)
                total = flags.count_flags(wp, word, memo=plain_memo).count
                check(
                    sum(dist.values()) == total,
                    f"split counts of {word} at p={p} do not sum to {total}",
                )
                totals.append(total)
            rows.append([p, totals])
            if len(rows) == 2:
                break
        check(len(rows) == 2, "fewer than two good validation primes")
        material = {
            "chi": [list(fp.chi) for fp in (fp_left, fp_right, fp_sum)],
            "counts": rows,
        }
        info = {
            "words": len(fp_sum.words),
            "max_prime": _max_prime((fp_left, fp_right, fp_sum)),
        }
        return material, info


class ExtPairs:
    """Ext presentations, the pairing and a middle term over Q."""

    name = "ext-pairs"
    universe = 512

    @staticmethod
    def generate(P, index):
        """A pair built like acceptance tests 05 and 06."""
        label, dq = _quiver_for(P, index)
        rng = random.Random(f"ext-pairs/{index}")
        make = P.randgen.random_nilpotent_module
        m = make(dq, rng, steps=3, max_total=6)
        n = make(dq, rng, steps=3, max_total=6)
        return {"quiver": label, "m": m, "n": n, "index": index}

    @staticmethod
    def input_data(P, inputs):
        return [P.serialize.module_to_data(inputs[k]) for k in ("m", "n")]

    @staticmethod
    def describe(P, inputs):
        return {
            "quiver": inputs["quiver"],
            "dims": [list(inputs["m"].dim), list(inputs["n"].dim)],
        }

    @staticmethod
    def op(P, inputs):
        homext = P.homext
        m, n = inputs["m"], inputs["n"]
        pres_mn = homext.ext_presentation(m, n)
        pres_nm = homext.ext_presentation(n, m)
        ext1 = pres_mn.ext1_dim
        check(ext1 == pres_nm.ext1_dim, "dim Ext^1 is not symmetric")
        gram_rank = P.linalg.rank(homext.cy_gram(pres_mn, pres_nm))
        check(gram_rank == ext1, f"pairing Gram matrix has rank {gram_rank} < {ext1}")
        rep = homext.dimension_checks(m, n)
        check(rep.ok, "a dimension formula fails")
        rng = random.Random(f"ext-pairs/{inputs['index']}/class")
        d = P.randgen.random_combination(pres_mn.ext1_basis, rng)
        if d is None:
            d = homext.Derivation.build(m, n, {})
        middle = homext.middle_term(d).module
        want = [a + b for a, b in zip(m.dim, n.dim)]
        check(list(middle.dim) == want, "middle term has the wrong dimension")
        check(P.module.validate(middle).ok, "middle term is not a nilpotent module")
        material = {
            "hom": [rep.hom_mn, rep.hom_nm],
            "ext1": [rep.ext1_mn, rep.ext1_nm],
            "ext2_cokernel": rep.ext2_cokernel,
            "form": rep.form,
            "gram_rank": gram_rank,
            "middle_dim": want,
        }
        info = {"c0": pres_mn.c0_dim, "c1": pres_mn.c1_dim, "ext1": ext1}
        return material, info


WORKLOADS = {w.name: w for w in (D4Pairwise, DirsumSplit, ExtPairs)}
