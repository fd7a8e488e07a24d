"""ASY001/ASY002: async-safety rules over the whole-program index.

**ASY001 (blocking reachability).**  A coroutine that -- transitively,
through any chain of plain synchronous project calls -- reaches a
blocking primitive stalls its entire event loop: with the async serving
plane, one ``time.sleep`` buried three calls deep freezes every
in-flight connection on that worker.  The rule walks the synchronous
closure of every ``async def`` (executor hops cut the walk: work
offloaded through ``run_in_executor``/``submit``/``to_thread`` is the
*approved* way to block) and reports each blocking call site with the
full reachability chain, so the finding explains itself.  A plain
function the loop calls directly -- an ``asyncio.Protocol`` transport
callback, or a ``call_soon``/``call_later``/``add_done_callback`` target
-- is a root too; a class's loop callbacks report a blocking site once,
through the shortest chain that reaches it.

**ASY002 (cross-domain races).**  LCK001 enforces lock consistency but
is blind to *who* runs a method.  This rule uses the dataflow summaries:
an attribute written in one execution domain (event loop vs. spawned
thread) and touched in the other, with at least one of those accesses
outside the lock, is a cross-domain race candidate.  The
double-checked-locking idiom stays clean by construction: an unguarded
*read* in a method that re-reads the same attribute under the lock is
the approved lock-free probe and is exempt; unguarded *writes* never
are.  Classes that declare no ``self.*lock*`` attribute are out of
scope -- they have made no synchronization claim for this rule to hold
them to (the same philosophy as LCK001's inference).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import DOMAIN_LOOP, DOMAIN_THREAD, ProjectIndex
from repro.analysis.core import Finding, Module, Project, Rule
from repro.analysis.dataflow import ClassSummary, build_dataflow

_CONSTRUCTORS = frozenset({"__init__", "__new__", "__post_init__"})

#: Dotted external calls that block the calling thread outright.
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "select.select",
    }
)

#: Method-name heuristics: ``<receiver>.<method>()`` blocks when the
#: receiver's spelling matches the hint (conservative: an unhinted
#: receiver is not flagged).  ``future.result()`` parks the caller;
#: ``self._lock.acquire()`` without the ``with`` protocol can park
#: unboundedly; thread joins and event waits are the classic loop hangs.
_BLOCKING_METHODS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("acquire", ("lock", "sem", "mutex")),
    ("result", ("future", "fut")),
    ("join", ("thread", "proc", "worker")),
    ("wait", ("event", "barrier", "condition")),
    ("accept", ("sock", "listener", "conn", "server")),
    ("recv", ("sock", "listener", "conn")),
    ("recvfrom", ("sock", "listener", "conn")),
    ("sendall", ("sock", "listener", "conn")),
    ("connect", ("sock", "listener", "conn")),
    ("makefile", ("sock", "listener", "conn")),
    ("read_text", ("path", "file")),
    ("write_text", ("path", "file")),
    ("read_bytes", ("path", "file")),
    ("write_bytes", ("path", "file")),
)


def classify_blocking(external: str, awaited: bool) -> Optional[str]:
    """A human-readable description when the external call blocks."""
    if awaited:
        return None  # awaiting means an async API: not a blocking call
    if external in _BLOCKING_CALLS:
        return f"{external}()"
    if "." in external:
        receiver, _, method = external.rpartition(".")
        receiver_lower = receiver.lower()
        for blocked, hints in _BLOCKING_METHODS:
            if method == blocked and any(h in receiver_lower for h in hints):
                return f"{external}()"
    return None


class AsyncBlockingRule(Rule):
    id = "ASY001"
    name = "async-blocking"
    description = (
        "No blocking primitive (time.sleep, lock acquire, blocking "
        "socket/file ops, subprocess) transitively reachable from an "
        "async def without an executor hop."
    )
    version = "1.1"
    requires_project_index = True

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        index: Optional[ProjectIndex] = getattr(self, "index", None)
        if index is None:
            return
        for qualname, info in sorted(index.functions.items()):
            if info.module != module.relpath or not info.is_async:
                continue
            for chain, blocked in self._blocking_sites(index, qualname).values():
                yield self._finding(module, index, "async", chain, blocked)
        # Loop callbacks, grouped by owning class (or function): the
        # callbacks of one protocol share their code paths, and one
        # blocking site is one finding, whichever callback reaches it.
        groups: Dict[str, List[str]] = {}
        for qualname in index.loop_callbacks():
            info = index.functions[qualname]
            if info.module == module.relpath:
                groups.setdefault(info.class_name or qualname, []).append(qualname)
        for _owner, roots in sorted(groups.items()):
            shortest: Dict[Tuple[str, str], Tuple[Tuple[str, ...], str]] = {}
            for root in sorted(roots):
                for key, (chain, blocked) in self._blocking_sites(index, root).items():
                    if key not in shortest or len(chain) < len(shortest[key][0]):
                        shortest[key] = (chain, blocked)
            for chain, blocked in shortest.values():
                yield self._finding(module, index, "loop callback", chain, blocked)

    @staticmethod
    def _blocking_sites(
        index: ProjectIndex, start: str
    ) -> Dict[Tuple[str, str], Tuple[Tuple[str, ...], str]]:
        """``(function, blocking call) -> (chain from start, blocking
        call)`` for every blocking call in the synchronous closure of
        ``start``, in walk order."""
        sites: Dict[Tuple[str, str], Tuple[Tuple[str, ...], str]] = {}
        for fn_qual, chain, _edge in index.walk_sync(start):
            for edge in index.external_calls(fn_qual):
                blocked = classify_blocking(edge.external or "", edge.awaited)
                if blocked is not None:
                    sites.setdefault((fn_qual, blocked), (chain, blocked))
        return sites

    def _finding(
        self,
        module: Module,
        index: ProjectIndex,
        kind: str,
        chain: Tuple[str, ...],
        blocked: str,
    ) -> Finding:
        start_info = index.functions[chain[0]]
        shorts = [index.functions[q].short for q in chain]
        chain_text = " -> ".join([*shorts, blocked])
        return Finding(
            rule=self.id,
            path=module.relpath,
            line=start_info.lineno,
            col=1,
            message=(
                f"{kind} {start_info.short}() can block its event "
                f"loop: {blocked} is reachable with no executor "
                f"hop via {chain_text}"
            ),
            severity=self.severity,
        )


class CrossDomainRaceRule(Rule):
    id = "ASY002"
    name = "cross-domain-race"
    description = (
        "An attribute touched by both the event-loop and a thread "
        "domain must hold the class lock at every access (lock-free "
        "probes that re-check under the lock are exempt)."
    )
    version = "1.0"
    requires_project_index = True

    def prepare(self, project: Project, index: Optional[object]) -> None:
        self.index = index
        self._summaries = (
            build_dataflow(project, index) if index is not None else {}
        )

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        index: Optional[ProjectIndex] = getattr(self, "index", None)
        if index is None:
            return
        for cls_qual in sorted(self._summaries):
            summary = self._summaries[cls_qual]
            if summary.module != module.relpath or not summary.lock_attrs:
                continue
            yield from self._check_class(module, summary)

    def _check_class(
        self, module: Module, summary: ClassSummary
    ) -> Iterator[Finding]:
        cls_name = summary.qualname.rsplit(".", 1)[-1]
        for attr, accesses in sorted(summary.by_attr().items()):
            if not attr.startswith("_"):
                continue
            tracked = [
                a for a in accesses if a.method not in _CONSTRUCTORS
            ]
            if not tracked:
                continue
            write_domains: Set[str] = set()
            touch_domains: Set[str] = set()
            for access in tracked:
                touch_domains |= access.domains
                if access.is_write:
                    write_domains |= access.domains
            # The race shape: a write in one domain, any access in the
            # other.  No write anywhere, or single-domain traffic, is
            # not this rule's business.
            cross = (
                (DOMAIN_LOOP in write_domains and DOMAIN_THREAD in touch_domains)
                or (DOMAIN_THREAD in write_domains and DOMAIN_LOOP in touch_domains)
            )
            if not cross:
                continue
            locked_methods = {
                a.method_qualname
                for a in tracked
                if a.locked
            }
            for access in sorted(
                tracked, key=lambda a: (a.lineno, a.col, a.attr)
            ):
                if access.locked or not access.domains:
                    continue
                if not access.is_write and access.method_qualname in locked_methods:
                    # double-checked locking: this method revalidates the
                    # attribute under the lock; the lock-free probe is
                    # the approved fast path.
                    continue
                kind = "write to" if access.is_write else "read of"
                domains = "+".join(sorted(access.domains))
                yield Finding(
                    rule=self.id,
                    path=module.relpath,
                    line=access.lineno,
                    col=access.col + 1,
                    message=(
                        f"cross-domain {kind} {cls_name}.{attr} outside "
                        f"the lock in {access.method}() [{domains} "
                        "domain]: the event loop and a worker thread "
                        "both touch this attribute"
                    ),
                    severity=self.severity,
                )
