"""Built-in domain fixtures: phrase bank for rendered window text, entity
dictionaries, and the incident category taxonomy used by the synthetic
ticket corpus generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .enrichment import EntityDictionaries
from .textextract import Dictionary, WordLM, train_lm


def _data_path(name: str):
    return resources.files("tickettriage").joinpath("data", name)


def _load_term_file(path) -> list[str]:
    with path.open(encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def _load_alias_file(path) -> dict[str, str]:
    aliases: dict[str, str] = {}
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if "->" in line:
                alias, canonical = (part.strip() for part in line.split("->", 1))
            else:
                alias = canonical = line
            aliases[alias] = canonical
    return aliases


@lru_cache(maxsize=None)
def phrase_bank() -> list[str]:
    """Window body-text phrases, all renderable by the built-in font."""
    return _load_term_file(_data_path("phrases.txt"))


@lru_cache(maxsize=None)
def entity_dictionaries() -> EntityDictionaries:
    return EntityDictionaries(
        _load_alias_file(_data_path("os.txt")),
        _load_term_file(_data_path("apps.txt")),
        _load_term_file(_data_path("components.txt")),
    )


@lru_cache(maxsize=None)
def term_dictionary() -> Dictionary:
    """Dictionary of app/OS words for OCR token correction."""
    words: set[str] = set()
    d = entity_dictionaries()
    for app in d.apps:
        words.update(app.split())
    words.update(d.os_aliases.values())
    for comp in d.components:
        words.update(comp.split())
    return Dictionary(words)


def _lm_corpus() -> list[str]:
    lines = list(phrase_bank())
    for p in TAXONOMY:
        lines += [f"{p.app} failed", f"{p.error_code} was reported", *p.symptoms]
    return lines + [f"{os_name} {ver}" for os_name in ("Windows", "Linux", "Mac")
                    for ver in ("10", "11", "13", "14", "20.04", "22.04")]


@lru_cache(maxsize=None)
def word_lm() -> WordLM:
    """Word bigram LM over the phrase bank and taxonomy, for OCR correction."""
    return train_lm(_lm_corpus())


# ---------------------------------------------------------------------------
# incident taxonomy

@dataclass(frozen=True)
class CategoryProfile:
    f1: str
    f2: str
    f3: str
    resolver_group: str
    app: str
    error_code: str
    weight: int          # relative ticket frequency
    head: bool           # has a curated resolution and high volume
    symptoms: tuple[str, ...]
    resolution: str

    @property
    def fields(self) -> tuple[str, str, str]:
        return (self.f1, self.f2, self.f3)


TAXONOMY: tuple[CategoryProfile, ...] = (
    CategoryProfile(
        "software", "install", "error1935", "app-support",
        "Crystal Reports Runtime Engine", "Error 1935", 20, True,
        ("installation failed while installing",
         "an error occurred during the installation of assembly component",
         "setup aborted with HRESULT: 0x800736FD"),
        "Stop the Windows Modules Installer service, clear the pending "
        "transaction list, then rerun the runtime installer as administrator.",
    ),
    CategoryProfile(
        "software", "crash", "outofmemory", "enduser-sw",
        "Java Runtime", "Error 42", 16, True,
        ("the application crashed and reported out of memory",
         "heap exhausted while generating the report",
         "the process terminated unexpectedly"),
        "Raise the maximum heap size to 2 GB in the launcher configuration "
        "and disable the legacy in-memory cache plugin.",
    ),
    CategoryProfile(
        "network", "vpn", "timeout", "network-ops",
        "VPN Client", "Error 789", 14, True,
        ("the tunnel negotiation timed out",
         "cannot reach internal hosts after connecting",
         "disconnects after a few minutes on wireless"),
        "Re-import the IKEv2 profile and allow UDP 500 and 4500 through the "
        "local firewall, then reconnect.",
    ),
    CategoryProfile(
        "email", "outlook", "sync", "collab-support",
        "Outlook", "Error 0x8004010F", 12, True,
        ("the mailbox stopped syncing this morning",
         "send and receive fails with the data file cannot be found",
         "new mail does not arrive until restart"),
        "Create a new mail profile from the control panel and let the client "
        "rebuild the offline data file.",
    ),
    CategoryProfile(
        "hardware", "printer", "driver", "enduser-hw",
        "Printer Manager", "Error 0x00000709", 9, True,
        ("cannot set the default printer",
         "print jobs stay queued in the spooler",
         "the driver is not responding after the update"),
        "Clear the spooler queue, remove the stale registry mapping for the "
        "old default printer, and reinstall the universal driver.",
    ),
    CategoryProfile(
        "access", "password", "locked", "identity",
        "SSO Portal", "Error 1909", 7, True,
        ("the account is currently locked out",
         "cannot sign in after changing the password",
         "repeated lockouts every hour"),
        "Unlock the account in the identity console and clear saved "
        "credentials on all enrolled devices to stop re-lockouts.",
    ),
    # long tail: no curated resolution, low volume
    CategoryProfile(
        "browser", "chrome", "certificate", "enduser-sw",
        "Chrome", "Error 0x80092012", 4, False,
        ("the certificate revocation check failed",
         "internal sites show a privacy warning"),
        "Deploy the updated internal root certificate to the machine store.",
    ),
    CategoryProfile(
        "storage", "disk", "full", "infra-ops",
        "Backup Agent", "Error 112", 4, False,
        ("the nightly backup failed",
         "there is not enough space on the disk"),
        "Prune expired snapshots and extend the staging volume.",
    ),
    CategoryProfile(
        "os", "update", "failed", "enduser-sw",
        "Update Service", "Error 0x80070002", 4, False,
        ("the cumulative update fails to apply",
         "the system cannot find the file specified"),
        "Reset the update cache folders and rescan for updates.",
    ),
    CategoryProfile(
        "database", "connection", "refused", "infra-ops",
        "SQL Server", "Error 10061", 4, False,
        ("the application cannot reach the database",
         "no connection could be made to the instance"),
        "Enable the TCP listener on the instance and open port 1433.",
    ),
    CategoryProfile(
        "license", "activation", "expired", "app-support",
        "SAP GUI", "Error 30601", 3, False,
        ("the license check fails at start",
         "activation expired over the weekend"),
        "Renew the license key on the message server and restart the client.",
    ),
    CategoryProfile(
        "software", "excel", "macro", "collab-support",
        "Excel", "Error 400", 3, False,
        ("the reporting macro stops with a dialog",
         "the workbook macro worked last month"),
        "Re-trust the shared macro workbook location and re-enable the "
        "reference to the analysis library.",
    ),
)
