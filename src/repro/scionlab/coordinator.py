"""The SCIONLab coordinator (web-interface equivalent).

§3.2: "We created one AS through the SCIONLab web interface and attached
it to ETHZ-AP. ... SCIONLab web interface provided a unique ASN for our
AS, along with cryptographic keys and public-key certificates.
Subsequently, a Vagrant file for our AS was generated."

The coordinator here owns the per-ISD trust roots (core AS key pairs and
TRCs), allocates user ASNs in the ``ffaa:1:xxx`` range, issues
certificates signed by the attachment point's ISD core, and produces the
VM configuration artifact.  It can also *extend* a topology with the new
user AS, returning the enlarged world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.crypto.certs import Certificate, issue_certificate, self_signed
from repro.crypto.rsa import RSAKeyPair
from repro.crypto.trc import TRC, TrustStore
from repro.errors import TopologyError, ValidationError
from repro.scionlab.vm import VMConfig
from repro.topology.builder import TopologyBuilder
from repro.topology.entities import ASRole, AutonomousSystem, Host, LinkKind, LinkSpec
from repro.topology.graph import Topology
from repro.topology.isd_as import ISDAS
from repro.util.rng import RngStreams

#: SCIONLab user ASes live in the ``ffaa:1:*`` block.
_USER_AS_BASE = ISDAS._parse_asn("ffaa:1:0")

#: Simulation-grade key size; see :mod:`repro.crypto`.
_KEY_BITS = 256


@dataclass(frozen=True)
class UserAS:
    """Everything the coordinator hands a new experimenter."""

    isd_as: ISDAS
    name: str
    attachment_point: ISDAS
    keypair: RSAKeyPair
    certificate: Certificate
    vm_config: VMConfig

    @property
    def certificate_chain(self) -> List[Certificate]:
        return [self.certificate]


class Coordinator:
    """Allocates user ASes and maintains the SCIONLab trust plane."""

    def __init__(self, topology: Topology, *, seed: int = 7) -> None:
        self.topology = topology
        self._streams = RngStreams(seed)
        self._next_user_index: Dict[int, int] = {}
        self._user_ases: Dict[ISDAS, UserAS] = {}
        self._core_keys: Dict[ISDAS, RSAKeyPair] = {}
        self._trcs: Dict[int, TRC] = {}
        self._init_trust_plane()

    # -- trust plane -------------------------------------------------------------

    def _init_trust_plane(self) -> None:
        for isd in self.topology.isds():
            core_keys = {}
            for core in self.topology.core_ases(isd):
                kp = RSAKeyPair.generate(
                    self._streams.get(f"corekey:{core.isd_as}"), bits=_KEY_BITS
                )
                self._core_keys[core.isd_as] = kp
                core_keys[str(core.isd_as)] = kp.public
            if core_keys:
                self._trcs[isd] = TRC(isd=isd, version=1, core_keys=core_keys)

    def trust_store(self) -> TrustStore:
        """A trust store holding every ISD's TRC (what hosts install)."""
        return TrustStore(self._trcs.values())

    def issue_as_certificate(self, subject: "ISDAS | str", public_key) -> Certificate:
        """PKC for an AS, signed by (the first) core AS of its ISD."""
        subject = ISDAS.parse(subject)
        cores = self.topology.core_ases(subject.isd)
        if not cores:
            raise TopologyError(f"ISD {subject.isd} has no core AS")
        issuer = cores[0].isd_as
        return issue_certificate(
            str(issuer), self._core_keys[issuer], str(subject), public_key
        )

    # -- user AS lifecycle -------------------------------------------------------------

    def create_user_as(
        self,
        attachment_point: "ISDAS | str",
        *,
        name: str = "user-as",
        owner_email: str = "experimenter@example.org",
    ) -> Tuple[Topology, UserAS]:
        """Create a user AS attached at ``attachment_point``.

        Returns the *extended* topology (the original is never mutated)
        and the :class:`UserAS` record with keys, PKC and VM config.
        """
        ap = ISDAS.parse(attachment_point)
        ap_sys = self.topology.as_of(ap)
        if ap_sys.role is not ASRole.ATTACHMENT_POINT:
            raise ValidationError(f"{ap} is not an attachment point")

        isd = ap.isd
        index = self._next_user_index.get(isd, 1)
        while True:
            candidate = ISDAS(isd=isd, asn=_USER_AS_BASE + 0xE00 + index)
            if candidate not in self.topology and candidate not in self._user_ases:
                break
            index += 1
        self._next_user_index[isd] = index + 1

        keypair = RSAKeyPair.generate(
            self._streams.get(f"userkey:{candidate}"), bits=_KEY_BITS
        )
        certificate = self.issue_as_certificate(candidate, keypair.public)
        new_topology = self._extend_topology(candidate, name, ap_sys, owner_email)
        vm = VMConfig.for_user_as(
            isd_as=candidate,
            attachment_point=ap,
            owner_email=owner_email,
            certificate=certificate,
        )
        user = UserAS(
            isd_as=candidate,
            name=name,
            attachment_point=ap,
            keypair=keypair,
            certificate=certificate,
            vm_config=vm,
        )
        self._user_ases[candidate] = user
        self.topology = new_topology
        return new_topology, user

    def _extend_topology(
        self,
        user_ia: ISDAS,
        name: str,
        ap_sys: AutonomousSystem,
        owner_email: str,
    ) -> Topology:
        """Rebuild the world with the user AS linked under its AP."""
        ases = list(self.topology.all_ases())
        links = list(self.topology.links())
        max_ifid = (
            max(
                (
                    l.interface_of(ap_sys.isd_as)
                    for l in self.topology.links_of(ap_sys.isd_as)
                ),
                default=0,
            )
            + 1
        )
        user_sys = AutonomousSystem(
            isd_as=user_ia,
            name=name,
            role=ASRole.USER,
            location=ap_sys.location,
            country=ap_sys.country,
            operator=owner_email.split("@")[-1],
            city=ap_sys.city,
            hosts=[Host(ip="127.0.0.1", name=name)],
        )
        access = LinkSpec(
            a=ap_sys.isd_as,
            a_ifid=max_ifid,
            b=user_ia,
            b_ifid=1,
            kind=LinkKind.PARENT,
            capacity_ab_mbps=40.0,
            capacity_ba_mbps=24.0,
        )
        return Topology(ases + [user_sys], links + [access])

