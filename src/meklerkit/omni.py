"""Homomorphism lifting and bounded extension-property audits for groups.

The group-side extension property asks: given a finite subgroup F of Gamma
and an embedding psi of F into a finite group G generated by psi(F) and one
more element, is there a subgroup H of Gamma containing F and a surjection
H -> G extending psi?  `lift_hom` answers the universal version with the
block-sum witness H = F (+) G; `omni_check` searches Gamma exhaustively up
to a subgroup-order bound, so its "none" answers are proofs within the
bound, not timeouts.  It visits only the subgroups <F, y>, y in Gamma: a
witness pi : H -> G with pi(y) = g restricts to one on <F, y>, since G is
<psi(F), g>, so the least witness order is the least |<F, y>| carrying one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    Hom,
    Perm,
    PermGroup,
    _closure_mask,
    _hom_search,
    _homs,
    _onto,
    _order_pool,
    _subgroup_class,
    automorphisms,
    closure_elements,
    direct_sum,
    enumerate_homs,
    small_groups_catalog,
    subgroups,
    verify_hom_table,
)


@dataclass(frozen=True)
class LiftWitness:
    group: PermGroup  # H
    embed: Hom        # i : F -> H, injective
    surj: Hom         # Psi : H -> G, surjective, Psi o i = psi


def lift_hom(f_group: PermGroup, g_group: PermGroup, psi: Hom) -> LiftWitness:
    """Universal lift of psi : F -> G through the block sum H = F (+) G.

    i sends x to (x, psi(x)); the second projection is the surjection, and
    Psi(i(x)) = psi(x) holds on the nose.  All three properties (injective,
    surjective, triangle) are verified by enumeration before returning.
    """
    if psi.domain is not f_group or psi.codomain is not g_group:
        raise ValueError("psi must map the given F into the given G")
    psi.verify()
    ds = direct_sum(f_group, g_group)
    embed_images = [ds.inject_a(x) * ds.inject_b(psi(x)) for x in f_group.gens]
    embed = Hom(f_group, ds.group, embed_images, name="graph_embed")
    if not embed.verify().is_injective():
        raise AssertionError("lift embedding failed to be injective")
    surj = Hom(ds.group, g_group, [g_group.identity()] * len(f_group.gens) + list(g_group.gens),
               name="project_b")
    if not surj.verify().is_surjective():
        raise AssertionError("lift projection failed to be surjective")
    for x in f_group.elements():
        if surj(embed(x)) != psi(x):
            raise AssertionError("lift triangle failed")
    return LiftWitness(ds.group, embed, surj)


@dataclass(frozen=True)
class OmniQuery:
    """One extension-property instance inside an ambient group.

    `sub_f` must be a subgroup of `gamma` (same degree, elements inside);
    `psi` embeds it into `target`, and `gen` generates `target` together
    with psi(F).
    """

    gamma: PermGroup
    sub_f: PermGroup
    target: PermGroup
    psi: Hom
    gen: Perm

    def validate(self) -> "OmniQuery":
        if self.sub_f.degree != self.gamma.degree:
            raise ValueError("F must act on gamma's points")
        if not all(x in self.gamma for x in self.sub_f.elements()):
            raise ValueError("F is not a subgroup of gamma")
        if self.psi.domain is not self.sub_f or self.psi.codomain is not self.target:
            raise ValueError("psi must map F into the target")
        if not self.psi.verify().is_injective():
            raise ValueError("psi must be injective")
        if self.gen not in self.target:
            raise ValueError("distinguished generator is outside the target")
        seed = [self.psi(x) for x in self.sub_f.gens] + [self.gen]
        closed = closure_elements(seed, self.target.degree)
        if len(closed) != self.target.order():
            raise ValueError("psi(F) and the generator do not generate the target")
        return self


@dataclass(frozen=True)
class OmniWitness:
    subgroup: PermGroup  # H with F <= H <= gamma
    surj: Hom            # H -> target, surjective, extends psi


def _extensions(gamma: PermGroup, f_gens, bound: int) -> list[PermGroup]:
    """The distinct <F, y>, y in gamma, of order <= bound, sorted by (order, first y),
    each one mask closure and each generated by F's generators and then y."""
    ix = gamma._indexed()
    seed = [ix.pos[x] for x in f_gens]
    first = {}  # mask of <F, y> (None past the bound) -> the first y that generates it
    for y in range(len(ix.elements)):
        first.setdefault(_closure_mask(gamma, seed + [y], bound), y)
    first.pop(None, None)
    by_order = sorted(first.items(), key=lambda my: my[0].bit_count())  # stable: y ascending
    return [PermGroup(gamma.degree, [*f_gens, ix.elements[y]], known_order=m.bit_count(),
                      enum_budget=gamma.enum_budget) for m, y in by_order]


def _first_witness(query: OmniQuery, extensions) -> OmniWitness | None:
    """The first H of `extensions` (`_extensions` of F) with a surjection onto
    the target extending psi.  |target| must divide |H|.  F's generators go to
    psi's images and y to each element whose order divides its own, which loses
    no hom; only image tuples that generate the target are proved.
    """
    target = query.target
    fixed = [[query.psi(x)] for x in query.sub_f.gens]
    f_els = query.sub_f.elements()
    for h in extensions:
        if h.order() % target.order() != 0:
            continue
        for hom in _homs(h, target, _onto(target, fixed + [_order_pool(h.gens[-1], target)])):
            if all(hom(x) == query.psi(x) for x in f_els):
                if not verify_hom_table(hom):
                    raise AssertionError("witness failed the table check")
                return OmniWitness(h, hom)
    return None


def omni_check(query: OmniQuery, search_bound: int) -> OmniWitness | None:
    """Exhaustive bounded witness search; None is a proof within the bound.

    The subgroups <F, y>, y in gamma, of order <= search_bound are visited in
    (order, first y) order (`_extensions`); every witness contains one of them
    that is a witness too.  Nothing is kept between calls.
    """
    query.validate()
    return _first_witness(query, _extensions(query.gamma, query.sub_f.gens, search_bound))


# ---------------------------------------------------------------------------
# batch audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OmniAuditRow:
    f_order: int
    f_id: str          # sorted gamma element indices of F
    g_name: str
    g_order: int
    psi_fingerprint: str
    witnessed: bool
    witness_order: int | None
    search_bound: int
    flag: str


@dataclass(frozen=True)
class OmniAuditReport:
    gamma_label: str
    max_f: int
    max_g: int
    search_bound: int
    rows: tuple[OmniAuditRow, ...]

    @property
    def unwitnessed(self) -> tuple[OmniAuditRow, ...]:
        return tuple(r for r in self.rows if not r.witnessed)

    @property
    def flagged(self) -> tuple[OmniAuditRow, ...]:
        return tuple(r for r in self.rows if r.flag)

    def format_text(self) -> str:
        lines = [
            f"omni audit of {self.gamma_label}",
            f"bounds: |F| <= {self.max_f}, |G| <= {self.max_g}, "
            f"|H| <= {self.search_bound}",
            f"rows: {len(self.rows)}",
            f"unwitnessed: {len(self.unwitnessed)}",
            f"flagged: {len(self.flagged)}",
            "F-order | F-id | G | G-order | psi | verdict | H-order | bound | flag",
        ]
        for r in self.rows:
            lines.append(
                f"{r.f_order} | {r.f_id} | {r.g_name} | {r.g_order} | "
                f"{r.psi_fingerprint} | "
                f"{'witness' if r.witnessed else 'none'} | "
                f"{r.witness_order if r.witness_order is not None else '-'} | "
                f"{r.search_bound} | {r.flag or '-'}"
            )
        return "\n".join(lines) + "\n"


def _psi_orbit_representatives(f_sub: PermGroup, g_grp: PermGroup, auts: PermGroup):
    """Injective homs F -> G up to post-composition with Aut(G).

    Composing a witness surjection with an automorphism of G turns a witness
    for psi into one for alpha o psi, so auditing one representative per
    orbit loses nothing.
    """
    reps = {}
    for hom in enumerate_homs(f_sub, g_grp, injective_only=True):
        canon = _canonical_key(hom.positions(), auts)
        if canon not in reps:
            reps[canon] = hom
    return [reps[k] for k in sorted(reps)]


def _canonical_key(key: list[int], auts: PermGroup) -> tuple[int, ...]:
    """The least image of G positions `key` under Aut(G): one key per orbit."""
    return min(tuple(alpha.images[i] for i in key) for alpha in auts.elements())


def omni_audit(
    gamma: PermGroup,
    max_f: int,
    max_g: int,
    search_bound: int | None = None,
    h_block: Hom | None = None,
) -> OmniAuditReport:
    """Audit every bounded extension-property instance inside gamma.

    F runs over all subgroups of order <= max_f; G over a complete
    isomorphism catalog of orders <= max_g; psi over injective homs up to
    Aut(G), keeping only single-generator extensions (some g in G together
    with psi(F) generates G).  Each row records the `omni_check` verdict.
    The witness search runs only for R, the first F of each conjugacy class,
    over R's extensions <R, y> (`_extensions`), listed once when R's class is
    found.  A conjugate F = s R s^-1 keeps its own psi representatives and
    fingerprints, and each of its rows takes the verdict, witness order and
    flag of R's row in the Aut(G) orbit of psi o c_s (c_s: y -> s y s^-1),
    since H -> s H s^-1 carries witnesses to witnesses of the same order and
    the block is normal.

    `h_block` is the block injection H -> gamma of a tower stage, whose
    image is {e} x H: rows with F inside that block, G embeddable into H,
    and no witness are flagged, since the limit argument promises a witness
    one stage up.  Whether G embeds into H is decided once per catalog
    group, by the first injective hom.
    """
    if search_bound is None:
        search_bound = gamma.order()
    gamma_pos = gamma._indexed().pos
    catalog = [(g_grp, automorphisms(g_grp)) for g_grp in small_groups_catalog(max_g)]
    block = None  # the mask of {e} x H over gamma's positions
    if h_block is not None:
        if h_block.codomain is not gamma:
            raise ValueError("h_block must map into gamma")
        block = sum(1 << i for i in h_block.positions())

    rows = []
    embeds = {}  # catalog index -> the first injective hom G -> H, or None
    classes = {}  # F mask -> (its class's verdicts, c_s on the elements of R)
    for f_sub in subgroups(gamma, max_f):
        f_pos = [gamma_pos[x] for x in f_sub.elements()]
        f_id = ",".join(str(gamma_pos[x]) for x in sorted(f_sub.elements()))
        mask = sum(1 << i for i in f_pos)
        if mask not in classes:  # F is R, the first of its class and the only F that searches
            verdicts = {}  # (catalog index, canonical psi key) -> row verdict, or None if no row
            classes.update((m, (verdicts, zs)) for m, zs in _subgroup_class(gamma, f_pos).items())
            extensions = _extensions(gamma, f_sub.gens, search_bound)
        verdicts, conj = classes[mask]
        f_index = {z: j for j, z in enumerate(f_pos)}
        f_in_block = block is not None and not mask & ~block
        for gi, (g_ref, auts) in enumerate(catalog):
            for psi in _psi_orbit_representatives(f_sub, g_ref, auts):
                images = psi.positions()
                # psi o c_s, a psi of R, has its verdict; c_s is the identity on R itself
                key = gi, _canonical_key([images[f_index[z]] for z in conj], auts)
                if key not in verdicts:
                    verdicts[key] = None  # unless psi(F) and one element generate G
                    pools = [[psi(x)] for x in f_sub.gens] + [g_ref.elements()]
                    gen = next((ims[-1] for ims in _onto(g_ref, pools)), None)
                    if gen is not None:
                        query = OmniQuery(gamma, f_sub, g_ref, psi, gen).validate()
                        witness = _first_witness(query, extensions)
                        flag = ""
                        if witness is None and f_in_block:
                            if gi not in embeds:  # decided by the first injective hom
                                embeds[gi] = next(_hom_search(g_ref, h_block.domain, True), None)
                            if embeds[gi] is not None:
                                flag = "h-lift-miss"
                        verdicts[key] = (witness.subgroup.order() if witness else None, flag)
                verdict = verdicts[key]
                if verdict is None:
                    continue
                witness_order, flag = verdict
                rows.append(
                    OmniAuditRow(
                        f_order=f_sub.order(),
                        f_id=f_id,
                        g_name=g_ref.label(),
                        g_order=g_ref.order(),
                        psi_fingerprint="[" + ",".join(map(str, images)) + "]",
                        witnessed=witness_order is not None,
                        witness_order=witness_order,
                        search_bound=search_bound,
                        flag=flag,
                    )
                )
    return OmniAuditReport(
        gamma_label=gamma.label(),
        max_f=max_f,
        max_g=max_g,
        search_bound=search_bound,
        rows=tuple(rows),
    )
