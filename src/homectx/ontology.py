"""The home model's vocabulary, environment readings, and the model check.

The home model is its triples: persons with a priority, activities that tie
a person and a preference profile to a time of day, and profiles that map
appliances to desired boolean states.  Reasoning queries them directly;
``load_home_model`` only checks that they are well formed.  Environment
readings are the one typed record: timestamped sensor snapshots that map
onto triples and back (``reading_to_triples``/``triples_to_reading``).
"""

from __future__ import annotations

from datetime import date as Date
from functools import lru_cache
from math import inf

from .rdf import (Iri, Literal, Triple, TriplePattern, TripleStore, Value, Variable, home,
                  parse_date, xsd)

P_NAME = home("name")
P_PRIORITY = home("hasPriority")
P_WHEN = home("When")
P_WHO = home("Who")
P_DO = home("Do")
P_HUMIDITY = home("Humidity")
P_TEMPERATURE = home("Temperature")
P_ILLUMINATION = home("Illumination")
P_DATE = home("Date")
P_HAS_TIME = home("hasTime")
P_PERSON_IN = home("personIn")

XSD_DOUBLE = xsd("double")
XSD_BOOLEAN = xsd("boolean")
XSD_DATE = xsd("date")
XSD_POSITIVE_INTEGER = xsd("positiveInteger")


# Entries kept by each memo on the per-reading path (time labels here, person
# names in homectx.ingest).  Readings arrive in time order, so the streams
# repeat each label back to back; a small cap keeps memory flat however many
# distinct labels or names a long run sees.
MEMO_SIZE = 64


class ModelError(ValueError):
    """Raised when triples cannot be interpreted as a valid home model."""


class TimeOfDay(Value):
    __slots__ = _fields = ("hour", "minute", "second")

    def __init__(self, hour: int, minute: int, second: int):
        if not (0 <= hour <= 23 and 0 <= minute <= 59 and 0 <= second <= 59):
            raise ValueError(f"invalid time of day {hour}:{minute}:{second}")
        self._init(hour, minute, second)

    @property
    def label(self) -> str:
        """6-digit HHMMSS form used in resource names like :_180000."""
        return f"{self.hour:02d}{self.minute:02d}{self.second:02d}"

    @property
    def iri(self) -> Iri:
        return home(f"_{self.label}")

    @staticmethod
    @lru_cache(maxsize=MEMO_SIZE)
    def from_label(label: str) -> "TimeOfDay":
        """Memoised: the value is frozen, and a bad label raises every time.
        ASCII only: isdigit() also takes other scripts' digits and superscripts."""
        digits = label.removeprefix("_")
        if len(digits) != 6 or not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"time label must be 6 digits, got {label!r}")
        return TimeOfDay(int(digits[0:2]), int(digits[2:4]), int(digits[4:6]))


class EnvironmentReading(Value):
    """One timestamped sensor snapshot; the id is derived from date + time."""

    _fields = ("humidity", "temperature", "illumination", "date", "time", "persons_present")

    def __init__(self, humidity: float, temperature: float, illumination: float,
                 date: Date, time: TimeOfDay, persons_present: frozenset[Iri] = frozenset()):
        """The value checks, then one dict update: cheaper than a slot set per field."""
        if not 0 <= humidity <= 100:
            raise ValueError(f"humidity out of range: {humidity}")
        if illumination < 0:
            raise ValueError(f"illumination must be >= 0: {illumination}")
        # Humidity is now finite and illumination not below 0: NaN and the
        # infinities fail the comparisons above.
        if not (-inf < temperature < inf and illumination < inf):
            raise ValueError("sensor values must be finite numbers")
        self.__dict__.update(humidity=humidity, temperature=temperature,
                             illumination=illumination, date=date, time=time,
                             persons_present=persons_present)

    @property
    def id(self) -> Iri:
        """Not a field, so equality and hashing ignore it."""
        stamp = f"{self.date.year % 100:02d}{self.date.month:02d}{self.date.day:02d}"
        return home(f"_{stamp}{self.time.label}")


def format_double(value: float) -> str:
    """Lexical form for xsd:double; integral values print without a point."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def reading_to_triples(reading: EnvironmentReading) -> list[Triple]:
    """Emit the triple shape of one environment record."""
    rid = reading.id
    triples = [
        Triple(rid, P_HUMIDITY, Literal(format_double(reading.humidity), XSD_DOUBLE)),
        Triple(rid, P_TEMPERATURE, Literal(format_double(reading.temperature), XSD_DOUBLE)),
        Triple(rid, P_ILLUMINATION, Literal(format_double(reading.illumination), XSD_DOUBLE)),
        Triple(rid, P_DATE, Literal(reading.date.isoformat(), XSD_DATE)),
        Triple(rid, P_HAS_TIME, reading.time.iri),
    ]
    for person in sorted(reading.persons_present, key=lambda i: i.written):
        triples.append(Triple(rid, P_PERSON_IN, person))
    return triples


def _single_object(store: TripleStore, subject: Iri, predicate: Iri):
    hits = store.match(TriplePattern(subject, predicate, Variable("o")))
    return hits[0].object if hits else None


def _first_objects(store: TripleStore, predicate: Iri) -> dict:
    """Each subject's ``_single_object`` at ``predicate``, from one ``match``."""
    first = {}
    for t in store.match(TriplePattern(Variable("s"), predicate, Variable("o"))):
        first.setdefault(t.subject, t.object)  # hits come in canonical order
    return first


def _required_literal(store: TripleStore, subject: Iri, predicate: Iri, datatype: Iri) -> str:
    """The lexical form of the one ``datatype`` literal at ``predicate``."""
    obj = _single_object(store, subject, predicate)
    if obj is None:
        raise ModelError(f"missing property {predicate.local} on {subject.written}")
    if not isinstance(obj, Literal) or obj.datatype != datatype:
        raise ModelError(f"property {predicate.local} on {subject.written} is not "
                         f"{datatype.written}")
    return obj.lexical


def triples_to_reading(store: TripleStore, rid: Iri) -> EnvironmentReading:
    """Inverse of reading_to_triples for the record named ``rid``."""
    if not store.match(TriplePattern(rid, Variable("p"), Variable("o"))):
        raise ModelError(f"environment record {rid.written} not found")
    humidity = float(_required_literal(store, rid, P_HUMIDITY, XSD_DOUBLE))
    temperature = float(_required_literal(store, rid, P_TEMPERATURE, XSD_DOUBLE))
    illumination = float(_required_literal(store, rid, P_ILLUMINATION, XSD_DOUBLE))
    date_text = _required_literal(store, rid, P_DATE, XSD_DATE)
    time_obj = _single_object(store, rid, P_HAS_TIME)
    if time_obj is None:
        raise ModelError(f"missing property hasTime on {rid.written}")
    if not isinstance(time_obj, Iri):
        raise ModelError(f"hasTime on {rid.written} must name a time resource")
    persons = frozenset(
        t.object for t in store.match(TriplePattern(rid, P_PERSON_IN, Variable("o")))
        if isinstance(t.object, Iri)
    )
    try:
        time = TimeOfDay.from_label(time_obj.local)
    except ValueError as exc:
        raise ModelError(str(exc)) from None
    return EnvironmentReading(
        humidity=humidity,
        temperature=temperature,
        illumination=illumination,
        date=parse_date(date_text),
        time=time,
        persons_present=persons,
    )


def load_home_model(store: TripleStore) -> None:
    """Check that the store holds a valid home model; raise ModelError if not.

    A person is any subject with both :name and :hasPriority; an activity any
    subject with :When/:Who/:Do; a preference profile any :Do target carrying
    at least one boolean-valued property (the fixture carries no rdf:type
    triples, so discovery is structural).  Every :hasPriority must be an
    xsd:positiveInteger.  All shapes are checked first, then each activity's
    person and profile.  Each of :name, :hasPriority, :When, :Who and :Do is
    read with one ``match``, and each profile with one more.

    Reading triples carry only environment predicates and no boolean
    objects, so nothing here reads them: a store that passes stays valid
    as readings are inserted.
    """
    names = _first_objects(store, P_NAME)
    persons = set()
    for t in store.match(TriplePattern(Variable("s"), P_PRIORITY, Variable("o"))):
        # reasoning reads every :hasPriority, named subject or not, as an int
        if not (isinstance(t.object, Literal) and t.object.datatype == XSD_POSITIVE_INTEGER):
            raise ModelError(f"hasPriority on {t.subject.written} must be an "
                             "xsd:positiveInteger")
        if isinstance(names.get(t.subject), Literal):
            persons.add(t.subject)

    whos, dos = _first_objects(store, P_WHO), _first_objects(store, P_DO)
    activities = {}  # activity Iri -> (who, does)
    for t in store.match(TriplePattern(Variable("s"), P_WHEN, Variable("o"))):
        who, does = whos.get(t.subject), dos.get(t.subject)
        if who is None or does is None:
            continue
        if not isinstance(t.object, Iri):
            raise ModelError(f"When on {t.subject.written} must name a time resource")
        if not isinstance(who, Iri) or not isinstance(does, Iri):
            raise ModelError(f"Who/Do on {t.subject.written} must be resources")
        try:
            TimeOfDay.from_label(t.object.local)
        except ValueError as exc:
            raise ModelError(str(exc)) from None
        activities[t.subject] = (who, does)

    profiles = set()  # each profile is checked once, however many activities name it
    for activity, (who, does) in activities.items():
        if who not in persons:
            raise ModelError(f"activity {activity.written} references unknown person "
                             f"{who.written}")
        if does not in profiles:
            if not any(isinstance(t.object, Literal) and t.object.datatype == XSD_BOOLEAN
                       for t in store.match(TriplePattern(does, Variable("p"), Variable("o")))):
                raise ModelError(f"activity {activity.written} references unknown "
                                 f"preference {does.written}")
            profiles.add(does)
