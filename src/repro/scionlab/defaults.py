"""Canonical server set and database seed documents.

The ``availableServers`` collection (§4.2.1) holds "server's source IP
address, along with an id ... a progressive integer ... between 1 and
21".  This module turns :data:`repro.topology.scionlab.AVAILABLE_SERVERS`
into those documents and maps the paper's five study destinations to
their ids.
"""

from __future__ import annotations

from typing import Dict, List

from repro.topology.isd_as import ISDAS
from repro.topology.scionlab import AVAILABLE_SERVERS, STUDY_DESTINATIONS


def available_server_documents() -> List[Dict[str, object]]:
    """Documents for the ``availableServers`` collection, ids 1..21."""
    docs: List[Dict[str, object]] = []
    for server_id, (isd_as, ip) in enumerate(AVAILABLE_SERVERS, start=1):
        docs.append(
            {
                "_id": server_id,
                "isd_as": isd_as,
                "ip": ip,
                "address": ISDAS.parse(isd_as).address(ip),
            }
        )
    return docs


def study_destination_ids() -> List[int]:
    """Server ids of the paper's 5-destination study subset (§6)."""
    wanted = set(STUDY_DESTINATIONS)
    ids: List[int] = []
    seen = set()
    for server_id, (isd_as, _ip) in enumerate(AVAILABLE_SERVERS, start=1):
        if isd_as in wanted and isd_as not in seen:
            ids.append(server_id)
            seen.add(isd_as)
    return ids


